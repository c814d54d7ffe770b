package ptree

import (
	"prodsys/internal/match"
	"prodsys/internal/relation"
)

// The condition R-tree is built once from the (static) rule set and only
// probed afterwards — searches are read-only and safe for concurrent
// workers — so match.Shardable's maintain phase is a no-op and the whole
// sub-delta runs in detection. Every probe-seeded join and negated
// re-derivation sees final WM state, so per-shard sub-batches commute.
func (m *Matcher) ShardMaintain(*relation.Delta) error { return nil }

func (m *Matcher) ShardDetect(d *relation.Delta) error { return match.ApplyDelta(m, d) }
