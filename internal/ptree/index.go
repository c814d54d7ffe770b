package ptree

import (
	"slices"
	"sort"

	"prodsys/internal/metrics"
	"prodsys/internal/relation"
	"prodsys/internal/rules"
	"prodsys/internal/value"
)

// RectForCE derives the condition rectangle of a condition element from
// its variable-free restrictions. Attributes without constant
// restrictions (including all variable tests) stay unbounded; strict
// comparisons widen to closed bounds; inequality restrictions are dropped
// — all are false-positive-only relaxations.
func RectForCE(ce *rules.CE) Rect {
	r := FullRect(ce.Schema.Arity())
	for _, c := range ce.Consts {
		switch c.Op {
		case value.OpEq:
			r[c.Pos] = PointInterval(c.Val)
		case value.OpLt, value.OpLe:
			r[c.Pos] = r[c.Pos].clampHi(c.Val)
		case value.OpGt, value.OpGe:
			r[c.Pos] = r[c.Pos].clampLo(c.Val)
		}
	}
	return r
}

// clampHi lowers the upper bound to at most v.
func (iv Interval) clampHi(v value.V) Interval {
	if iv.hi.inf || cmpCoord(v, iv.hi.v) < 0 {
		iv.hi = bound{v: v}
	}
	return iv
}

// clampLo raises the lower bound to at least v.
func (iv Interval) clampLo(v value.V) Interval {
	if iv.lo.inf || cmpCoord(v, iv.lo.v) > 0 {
		iv.lo = bound{v: v}
	}
	return iv
}

// Index holds one condition R-tree per working-memory class.
type Index struct {
	set   *rules.Set
	trees map[string]*Tree
	stats *metrics.Set
}

// NewIndex indexes every condition element of the rule set except those
// in skip, which only fault injection passes: it damages the index the
// integrity auditor checks.
func NewIndex(set *rules.Set, stats *metrics.Set, skip ...*rules.CE) *Index {
	ix := &Index{set: set, trees: make(map[string]*Tree), stats: stats}
	for class, schema := range set.Classes {
		ix.trees[class] = NewTree(schema.Arity())
	}
	for class, ces := range set.ByClass {
		for _, ce := range ces {
			if slices.Contains(skip, ce) {
				continue
			}
			ix.trees[class].Insert(&Item{Rect: RectForCE(ce), Data: ce})
		}
	}
	return ix
}

// Conditions returns every condition element indexed for class, in rule
// order: what the integrity auditor compares with the rule set.
func (ix *Index) Conditions(class string) []*rules.CE {
	tree := ix.trees[class]
	if tree == nil {
		return nil
	}
	var out []*rules.CE
	tree.SearchRect(FullRect(tree.dims), func(it *Item) bool {
		out = append(out, it.Data.(*rules.CE))
		return true
	})
	sortCEs(out)
	return out
}

// CandidatesFor returns the condition elements whose rectangles admit the
// tuple, alpha-verified, in deterministic order.
func (ix *Index) CandidatesFor(class string, t relation.Tuple) []*rules.CE {
	tree := ix.trees[class]
	if tree == nil {
		return nil
	}
	var out []*rules.CE
	visited := tree.SearchPoint(t, func(it *Item) bool {
		ce := it.Data.(*rules.CE)
		// The rectangle is a relaxation; re-check exactly.
		if ce.MatchAlpha(t) {
			out = append(out, ce)
		}
		return true
	})
	ix.stats.Add(metrics.IndexLookups, int64(visited))
	sortCEs(out)
	return out
}

// RulesInRange answers a rulebase query: the rules having a condition on
// class whose restriction on attr intersects [lo, hi] (nil = unbounded).
// Example from §4.2.3: "give me all the rules that apply on employees
// older than 55" is RulesInRange("Emp", "age", 55, nil).
func (ix *Index) RulesInRange(class, attr string, lo, hi value.V) []*rules.Rule {
	schema, ok := ix.set.Classes[class]
	if !ok {
		return nil
	}
	pos, ok := schema.Pos(attr)
	if !ok {
		return nil
	}
	q := FullRect(schema.Arity())
	q[pos] = NewInterval(lo, hi)
	seen := map[*rules.Rule]struct{}{}
	var out []*rules.Rule
	visited := ix.trees[class].SearchRect(q, func(it *Item) bool {
		r := it.Data.(*rules.CE).Rule
		if _, dup := seen[r]; !dup {
			seen[r] = struct{}{}
			out = append(out, r)
		}
		return true
	})
	ix.stats.Add(metrics.IndexLookups, int64(visited))
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

func sortCEs(ces []*rules.CE) {
	sort.Slice(ces, func(i, j int) bool {
		if ces[i].Rule.Index != ces[j].Rule.Index {
			return ces[i].Rule.Index < ces[j].Rule.Index
		}
		return ces[i].Index < ces[j].Index
	})
}
