package ptree

import (
	"sort"

	"prodsys/internal/conflict"
	"prodsys/internal/joiner"
	"prodsys/internal/match"
	"prodsys/internal/metrics"
	"prodsys/internal/relation"
	"prodsys/internal/rules"
	"prodsys/internal/trace"
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
			r[c.Pos] = intersectPoint(r[c.Pos], c.Val)
		case value.OpLt, value.OpLe:
			r[c.Pos] = r[c.Pos].clampHi(c.Val)
		case value.OpGt, value.OpGe:
			r[c.Pos] = r[c.Pos].clampLo(c.Val)
		}
	}
	return r
}

// intersectPoint narrows an interval to a single point.
func intersectPoint(iv Interval, v value.V) Interval {
	pt := PointInterval(v)
	if !iv.overlaps(pt) {
		return pt // contradictory restrictions; keep the point
	}
	return pt
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

// NewIndex indexes every condition element of the rule set.
func NewIndex(set *rules.Set, stats *metrics.Set) *Index {
	ix := &Index{set: set, trees: make(map[string]*Tree), stats: stats}
	for class, schema := range set.Classes {
		ix.trees[class] = NewTree(schema.Arity())
	}
	for class, ces := range set.ByClass {
		for _, ce := range ces {
			ix.trees[class].Insert(&Item{Rect: RectForCE(ce), Data: ce})
		}
	}
	return ix
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

// Matcher is the Predicate Indexing matcher: the simplified algorithm
// with the COND search replaced by an R-tree probe — sublinear in the
// number of conditions instead of a full COND scan.
type Matcher struct {
	set   *rules.Set
	db    *relation.DB
	cs    *conflict.Set
	stats *metrics.Set
	index *Index
	tr    *trace.Tracer
	pl    *joiner.Planner
}

// SetTracer implements match.Matcher: R-tree probes and seeded join
// evaluations are emitted as trace events.
func (m *Matcher) SetTracer(tr *trace.Tracer) { m.tr = tr }

// SetPlanner implements match.Matcher: seeded verification joins and
// negated re-derivations run under the planner's cost-based join order.
func (m *Matcher) SetPlanner(p *joiner.Planner) { m.pl = p }

// NewMatcher builds the matcher. stats may be nil.
func NewMatcher(set *rules.Set, db *relation.DB, cs *conflict.Set, stats *metrics.Set) *Matcher {
	return &Matcher{set: set, db: db, cs: cs, stats: stats, index: NewIndex(set, stats)}
}

// Index exposes the condition index (for rulebase queries).
func (m *Matcher) Index() *Index { return m.index }

// Name implements match.Matcher.
func (m *Matcher) Name() string { return "ptree" }

// ConflictSet implements match.Matcher.
func (m *Matcher) ConflictSet() *conflict.Set { return m.cs }

// Insert implements match.Matcher.
func (m *Matcher) Insert(class string, id relation.TupleID, t relation.Tuple) error {
	t0 := m.tr.Now()
	cands := m.index.CandidatesFor(class, t)
	if m.tr.Enabled() {
		m.tr.Emit(trace.Event{
			Kind: trace.KindCondScan, At: t0, Dur: m.tr.Now() - t0,
			CE: -1, Class: class, ID: uint64(id), Count: int64(len(cands)),
		})
	}
	for _, ce := range cands {
		m.stats.Inc(metrics.PatternSearches)
		if ce.Negated {
			m.cs.RemoveBlocked(ce, []relation.DeltaEntry{{ID: id, Tuple: t}})
			continue
		}
		tJoin := m.tr.Now()
		var found int64
		m.pl.Enumerate(m.db, ce.Rule, &joiner.Pin{CE: ce.Index, ID: id, Tuple: t}, m.stats, func(ids []relation.TupleID, tuples []relation.Tuple, _ rules.Bindings) {
			found++
			m.cs.Add(conflict.NewInstantiation(ce.Rule, ids, tuples))
		})
		if m.tr.Enabled() {
			m.tr.Emit(trace.Event{
				Kind: trace.KindJoinEval, At: tJoin, Dur: m.tr.Now() - tJoin,
				Rule: ce.Rule.Name, CE: ce.Index, Class: class, ID: uint64(id), Count: found,
			})
		}
	}
	return nil
}

// Delete implements match.Matcher.
func (m *Matcher) Delete(class string, id relation.TupleID, t relation.Tuple) error {
	m.cs.RemoveByTuple(class, id)
	t0 := m.tr.Now()
	cands := m.index.CandidatesFor(class, t)
	if m.tr.Enabled() {
		m.tr.Emit(trace.Event{
			Kind: trace.KindCondScan, At: t0, Dur: m.tr.Now() - t0,
			CE: -1, Class: class, ID: uint64(id), Count: int64(len(cands)),
		})
	}
	seen := map[*rules.Rule]bool{}
	for _, ce := range cands {
		if !ce.Negated || seen[ce.Rule] {
			continue
		}
		seen[ce.Rule] = true
		tJoin := m.tr.Now()
		var found int64
		m.pl.Enumerate(m.db, ce.Rule, nil, m.stats, func(ids []relation.TupleID, tuples []relation.Tuple, _ rules.Bindings) {
			found++
			m.cs.Add(conflict.NewInstantiation(ce.Rule, ids, tuples))
		})
		if m.tr.Enabled() {
			m.tr.Emit(trace.Event{
				Kind: trace.KindJoinEval, At: tJoin, Dur: m.tr.Now() - tJoin,
				Rule: ce.Rule.Name, CE: ce.Index, Class: class, ID: uint64(id), Count: found,
			})
		}
	}
	return nil
}

// InsertBatch implements match.Matcher tuple-at-a-time: Predicate
// Indexing has no set-oriented path.
func (m *Matcher) InsertBatch(class string, entries []relation.DeltaEntry) error {
	return match.PerTuple(class, entries, m.Insert)
}

// DeleteBatch implements match.Matcher tuple-at-a-time.
func (m *Matcher) DeleteBatch(class string, entries []relation.DeltaEntry) error {
	return match.PerTuple(class, entries, m.Delete)
}
