package marker

import (
	"prodsys/internal/match"
	"prodsys/internal/relation"
)

// A deletion must read the deleted tuple's markers to know which rules
// to wake BEFORE discarding them, so marker upkeep cannot be split from
// detection: match.Shardable's maintain phase is a no-op and the whole
// sub-delta runs in detection. The marker map is mutex-guarded and every
// wake-time re-evaluation sees final WM state, so sub-batches commute.
func (m *Matcher) ShardMaintain(*relation.Delta) error { return nil }

func (m *Matcher) ShardDetect(d *relation.Delta) error { return match.ApplyDelta(m, d) }
