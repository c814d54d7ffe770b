package requery

import (
	"prodsys/internal/match"
	"prodsys/internal/relation"
)

// The simplified algorithm keeps no incremental derived state, so
// match.Shardable's maintain phase is a no-op and the whole batch path
// runs as detection. The planner and conflict set are safe for
// concurrent use and every derivation and negation check evaluates
// against final WM state, so per-shard sub-batches commute.
func (m *Matcher) ShardMaintain(*relation.Delta) error { return nil }

func (m *Matcher) ShardDetect(d *relation.Delta) error { return match.ApplyDelta(m, d) }
