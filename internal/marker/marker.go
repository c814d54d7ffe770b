// Package marker implements the Basic Locking rule-indexing scheme of
// Stonebraker, Sellis and Hanson [STON86a], described in §2.3 of the
// paper and used by POSTGRES: every tuple read while evaluating a rule's
// condition is marked with the rule's identifier, and index intervals are
// marked to catch future insertions (the phantom problem). An update to a
// marked tuple — or an insertion falling into a marked interval — wakes
// the marked rules, which must then re-check their conditions.
//
// The scheme stores only rule identifiers with the data (cheap space) but
// wakes rules that turn out not to be affected: the false drops the paper
// contrasts with its matching-pattern approach (§3.2, "POSTGRES will of
// course check the conditions of the rules before the corresponding
// actions are performed, but that will incur unnecessarily high
// computation cost").
package marker

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

// interval is a marked key range on one attribute of one class: rules
// interested in tuples whose attribute falls inside [lo, hi].
type interval struct {
	pos    int
	lo, hi value.V // nil bound = unbounded
	rule   *rules.Rule
	ce     *rules.CE
}

// contains reports whether v falls inside the interval.
func (iv interval) contains(v value.V) bool {
	if v.IsNil() {
		return false
	}
	if !iv.lo.IsNil() && !value.OpLe.Apply(iv.lo, v) {
		return false
	}
	if !iv.hi.IsNil() && !value.OpLe.Apply(v, iv.hi) {
		return false
	}
	return true
}

// tupleKey identifies a marked tuple.
type tupleKey struct {
	class string
	id    relation.TupleID
}

// Matcher is the Basic Locking matcher. It holds no locks of its own:
// like every match.Matcher it is called only under the engine's
// maintenance mutex, so insertion, deletion, audit and rebuild run alone.
type Matcher struct {
	set   *rules.Set
	db    *relation.DB
	cs    *conflict.Set
	stats *metrics.Set
	tr    *trace.Tracer
	pl    *joiner.Planner

	// marks: rule identifiers set on individual data tuples.
	marks map[tupleKey]map[*rules.Rule]struct{}
	// intervals: per class, the marked index key ranges derived from the
	// condition elements' restrictions at setup time.
	intervals map[string][]interval
}

// New builds the matcher and sets the index-interval marks implied by the
// rule set: for each condition element, the key range its constant
// restrictions admit on each restricted attribute; condition elements
// with no constant restriction mark the whole relation (the paper's
// "in the absence of indices ... marking all tuples" case).
func New(set *rules.Set, db *relation.DB, cs *conflict.Set, stats *metrics.Set) *Matcher {
	m := &Matcher{
		set:       set,
		db:        db,
		cs:        cs,
		stats:     stats,
		marks:     make(map[tupleKey]map[*rules.Rule]struct{}),
		intervals: make(map[string][]interval),
	}
	for _, r := range set.Rules {
		for _, ce := range r.CEs {
			m.intervals[ce.Class] = append(m.intervals[ce.Class], intervalFor(ce))
		}
	}
	return m
}

// intervalFor derives the marked key range of a condition element from
// its constant restrictions: the tightest single-attribute interval.
func intervalFor(ce *rules.CE) interval {
	iv := interval{pos: -1, rule: ce.Rule, ce: ce}
	for _, c := range ce.Consts {
		switch c.Op {
		case value.OpEq:
			return interval{pos: c.Pos, lo: c.Val, hi: c.Val, rule: ce.Rule, ce: ce}
		case value.OpGe, value.OpGt:
			if iv.pos == -1 || iv.pos == c.Pos {
				iv.pos, iv.lo = c.Pos, c.Val
			}
		case value.OpLe, value.OpLt:
			if iv.pos == -1 || iv.pos == c.Pos {
				iv.pos, iv.hi = c.Pos, c.Val
			}
		}
	}
	return iv
}

// SetTracer implements match.Matcher: marker/interval lookups and
// wake-time re-evaluations are emitted as trace events.
func (m *Matcher) SetTracer(tr *trace.Tracer) { m.tr = tr }

// SetPlanner implements match.Matcher: wake-time re-evaluations run
// under the planner's cost-based join order.
func (m *Matcher) SetPlanner(p *joiner.Planner) { m.pl = p }

// Name implements match.Matcher.
func (m *Matcher) Name() string { return "marker" }

// ConflictSet implements match.Matcher.
func (m *Matcher) ConflictSet() *conflict.Set { return m.cs }

// wakeInsert re-evaluates one woken rule against the inserted tuple:
// every condition element of the rule on the tuple's class is tried as
// the seed of an incremental evaluation (the re-check POSTGRES performs
// before acting). A wake that derives nothing is a false drop — the
// index-interval mark was too coarse.
func (m *Matcher) wakeInsert(r *rules.Rule, class string, id relation.TupleID, t relation.Tuple) {
	m.stats.Inc(metrics.CandidateChecks)
	t0 := m.tr.Now()
	var derived int64
	found := false
	for _, ce := range r.CEs {
		if ce.Class != class {
			continue
		}
		if ce.Negated {
			// The insertion may invalidate instantiations negatively
			// dependent on this class.
			m.cs.RemoveBlocked(ce, []relation.DeltaEntry{{ID: id, Tuple: t}})
			continue
		}
		m.pl.Enumerate(m.db, r, &joiner.Pin{CE: ce.Index, ID: id, Tuple: t}, m.stats, func(ids []relation.TupleID, tuples []relation.Tuple, _ rules.Bindings) {
			found = true
			derived++
			m.markInstantiation(r, ids)
			m.cs.Add(conflict.NewInstantiation(r, ids, tuples))
		})
	}
	if m.tr.Enabled() {
		extra := ""
		if !found {
			extra = "false drop"
		}
		m.tr.Emit(trace.Event{
			Kind: trace.KindJoinEval, At: t0, Dur: m.tr.Now() - t0,
			Rule: r.Name, CE: -1, Class: class, ID: uint64(id), Count: derived, Extra: extra,
		})
	}
	if !found {
		m.stats.Inc(metrics.FalseDrops)
	}
}

// wakeDelete re-derives one woken rule from scratch after a deletion
// (deletions can unblock negated conditions, so an incremental seed is
// not available).
func (m *Matcher) wakeDelete(r *rules.Rule) {
	m.stats.Inc(metrics.CandidateChecks)
	t0 := m.tr.Now()
	var derived int64
	found := false
	m.pl.Enumerate(m.db, r, nil, m.stats, func(ids []relation.TupleID, tuples []relation.Tuple, _ rules.Bindings) {
		found = true
		derived++
		m.markInstantiation(r, ids)
		m.cs.Add(conflict.NewInstantiation(r, ids, tuples))
	})
	if m.tr.Enabled() {
		extra := ""
		if !found {
			extra = "false drop"
		}
		m.tr.Emit(trace.Event{
			Kind: trace.KindJoinEval, At: t0, Dur: m.tr.Now() - t0,
			Rule: r.Name, CE: -1, Count: derived, Extra: extra,
		})
	}
	if !found {
		m.stats.Inc(metrics.FalseDrops)
	}
}

// markInstantiation sets rule markers on the tuples the evaluation read.
func (m *Matcher) markInstantiation(r *rules.Rule, ids []relation.TupleID) {
	for i, ce := range r.CEs {
		if ce.Negated {
			continue
		}
		key := tupleKey{class: ce.Class, id: ids[i]}
		set := m.marks[key]
		if set == nil {
			set = make(map[*rules.Rule]struct{})
			m.marks[key] = set
		}
		set[r] = struct{}{}
	}
}

// rulesToWake collects the rules whose markers or intervals a tuple hits.
func (m *Matcher) rulesToWake(class string, id relation.TupleID, t relation.Tuple, isInsert bool) []*rules.Rule {
	woken := map[*rules.Rule]struct{}{}
	if !isInsert {
		for r := range m.marks[tupleKey{class: class, id: id}] {
			woken[r] = struct{}{}
		}
	}
	// Insertions are caught by the index-interval marks.
	for _, iv := range m.intervals[class] {
		m.stats.Inc(metrics.IndexLookups)
		if iv.pos == -1 || iv.contains(t[iv.pos]) {
			woken[iv.rule] = struct{}{}
		}
	}
	out := make([]*rules.Rule, 0, len(woken))
	for r := range woken {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

// Insert implements match.Matcher.
func (m *Matcher) Insert(class string, id relation.TupleID, t relation.Tuple) error {
	t0 := m.tr.Now()
	woken := m.rulesToWake(class, id, t, true)
	if m.tr.Enabled() {
		m.tr.Emit(trace.Event{
			Kind: trace.KindCondScan, At: t0, Dur: m.tr.Now() - t0,
			CE: -1, Class: class, ID: uint64(id), Count: int64(len(woken)),
		})
	}
	for _, r := range woken {
		m.wakeInsert(r, class, id, t)
	}
	return nil
}

// Delete implements match.Matcher. Positive-side retraction is exact via
// the tuple markers; rules negatively dependent on the class must be
// re-derived, since the deletion may have unblocked them.
func (m *Matcher) Delete(class string, id relation.TupleID, t relation.Tuple) error {
	t0 := m.tr.Now()
	woken := m.rulesToWake(class, id, t, false)
	if m.tr.Enabled() {
		m.tr.Emit(trace.Event{
			Kind: trace.KindCondScan, At: t0, Dur: m.tr.Now() - t0,
			CE: -1, Class: class, ID: uint64(id), Count: int64(len(woken)),
		})
	}
	delete(m.marks, tupleKey{class: class, id: id})
	m.cs.RemoveByTuple(class, id)
	for _, r := range woken {
		negOnClass := false
		for _, ce := range r.CEs {
			if ce.Negated && ce.Class == class {
				negOnClass = true
				break
			}
		}
		if negOnClass {
			m.wakeDelete(r)
		}
	}
	return nil
}

// InsertBatch implements match.Matcher tuple-at-a-time: Basic Locking
// has no set-oriented path.
func (m *Matcher) InsertBatch(class string, entries []relation.DeltaEntry) error {
	return match.PerTuple(class, entries, m.Insert)
}

// DeleteBatch implements match.Matcher tuple-at-a-time.
func (m *Matcher) DeleteBatch(class string, entries []relation.DeltaEntry) error {
	return match.PerTuple(class, entries, m.Delete)
}

// MarkCount reports the number of (tuple, rule) marker pairs — the space
// cost of the scheme, to compare against pattern/token storage.
func (m *Matcher) MarkCount() int {
	n := 0
	for _, set := range m.marks {
		n += len(set)
	}
	return n
}
