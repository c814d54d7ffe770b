package relation

import (
	"prodsys/internal/metrics"
	"prodsys/internal/value"
)

// JoinCond relates an attribute of a left tuple to an attribute of a
// right tuple: left[LeftPos] Op right[RightPos].
type JoinCond struct {
	LeftPos  int
	RightPos int
	Op       value.Op
}

// Satisfies reports whether the pair (l, r) meets the join condition.
func (jc JoinCond) Satisfies(l, r Tuple) bool {
	return jc.Op.Apply(l[jc.LeftPos], r[jc.RightPos])
}

// JoinPair is one (left, right) result of a join probe.
type JoinPair struct {
	LeftID  TupleID
	RightID TupleID
}

// JoinProbe finds all tuples of rel joining with the single tuple t under
// conds (t plays the left role), optionally pre-filtered by restrictions
// on rel. The access path prefers an equality join condition with a hash
// index on rel, then an inequality join condition with an ordered index,
// then an indexed restriction on rel itself; only when no index applies
// is rel scanned. This is the "degenerate selection" of §4.1: a two-way
// join against a single new WM element reduces to a selection on the
// other relation.
func JoinProbe(t Tuple, rel *Relation, conds []JoinCond, rs []Restriction) []TupleID {
	rel.stats.Inc(metrics.JoinsComputed)
	check := func(id TupleID, u Tuple) bool {
		if !SatisfiesAll(u, rs) {
			return false
		}
		for _, jc := range conds {
			if !jc.Satisfies(t, u) {
				return false
			}
		}
		return true
	}
	// Residual filtering of index-probe candidates is not charged as
	// tuples_scanned: the probe already counted its access path, and
	// one CE evaluation must account exactly one access path for
	// Explain's actual-vs-estimated rows to reconcile.
	filter := func(candidates []TupleID) []TupleID {
		var out []TupleID
		for _, id := range candidates {
			u, ok := rel.Get(id)
			if !ok {
				continue
			}
			if check(id, u) {
				out = append(out, id)
			}
		}
		return out
	}
	// First choice: equality join condition with an index on the right.
	for _, jc := range conds {
		if jc.Op == value.OpEq && rel.HasIndex(jc.RightPos) {
			return filter(rel.SelectEq(jc.RightPos, t[jc.LeftPos]))
		}
	}
	// Second choice: inequality join condition probed through the
	// ordered index. "t[L] op u[R]" constrains u[R] by the flipped
	// operator against the known left value.
	for _, jc := range conds {
		if !rel.HasOrderedIndex(jc.RightPos) {
			continue
		}
		if b, ok := RangeFor(jc.Op.Flip(), t[jc.LeftPos]); ok {
			return filter(rel.SelectRange(jc.RightPos, b))
		}
	}
	// Third choice: an indexed restriction on rel narrows the
	// candidates before the join conditions are checked.
	for _, c := range rs {
		if c.Op == value.OpEq && rel.HasIndex(c.Pos) {
			return filter(rel.SelectEq(c.Pos, c.Val))
		}
	}
	var out []TupleID
	rel.Scan(func(id TupleID, u Tuple) bool {
		if check(id, u) {
			out = append(out, id)
		}
		return true
	})
	return out
}
