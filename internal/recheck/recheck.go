// Package recheck holds the filter-then-verify matchers: the paper's
// simplified algorithm (§4.1) and the [STON86a] baselines of §2.3, Basic
// Locking and Predicate Indexing. Each finds the condition elements a
// working-memory change may affect, then re-evaluates each one's LHS
// join pinned to the changed tuple; they differ only in the search. So
// one Matcher runs one insert/delete/batch pipeline over a filter:
//
//   - scan (NewRequery) searches every condition element on the class,
//     the COND relation of §4.1;
//   - marks (NewMarker) wakes the rules marked on a tuple or on an index
//     interval it falls in, and counts a wake that derives nothing as a
//     false drop;
//   - rtree (NewPTree) probes the condition R-tree of internal/ptree.
//
// None stores matching patterns or tokens — minimal space against join
// recomputation on every change. requery, a direct transcription of the
// declarative semantics, is the other matchers' correctness oracle.
package recheck

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"prodsys/internal/conflict"
	"prodsys/internal/joiner"
	"prodsys/internal/match"
	"prodsys/internal/metrics"
	"prodsys/internal/ptree"
	"prodsys/internal/relation"
	"prodsys/internal/rules"
	"prodsys/internal/trace"
)

// Matcher is a filter-then-verify matcher.
type Matcher struct {
	name  string
	set   *rules.Set
	db    *relation.DB
	cs    *conflict.Set
	stats *metrics.Set
	tr    *trace.Tracer
	pl    *joiner.Planner
	f     filter

	// pass and ins are reused buffers: the entries passing a condition
	// element's alpha tests, and the instantiations a re-evaluation
	// derives. Every call runs under the engine's maintenance lock.
	pass []relation.DeltaEntry
	ins  []*conflict.Instantiation
}

// filter is one scheme's search for the condition elements a WM change
// may affect. It counts its own search work, hands what it finds to
// Matcher.verify and Matcher.rederive, and owns its derived state.
type filter interface {
	// inserted passes each condition element the inserted entries may
	// satisfy to m.verify, with the entries to pin it to.
	inserted(m *Matcher, class string, entries []relation.DeltaEntry)
	// deleted, called once the entries' instantiations are retracted,
	// passes each rule the deletion may have unblocked to m.rederive.
	deleted(m *Matcher, class string, entries []relation.DeltaEntry)
	// derived sees every instantiation the pipeline derives.
	derived(r *rules.Rule, ids []relation.TupleID)
	// audit, rebuild and corrupt back AuditDerived, RebuildRules and
	// CorruptDerived.
	audit(m *Matcher, db *relation.DB, only map[string]bool, emit func(match.Divergence))
	rebuild(m *Matcher, db *relation.DB, only map[string]bool) error
	corrupt(m *Matcher, rng *rand.Rand) string
}

// NewRequery builds the simplified algorithm's matcher over the engine's
// WM catalog, which must already hold a relation per declared class
// (rules.BuildDB). stats may be nil.
func NewRequery(set *rules.Set, db *relation.DB, cs *conflict.Set, stats *metrics.Set) *Matcher {
	return &Matcher{name: "requery", set: set, db: db, cs: cs, stats: stats, f: scan{}}
}

// NewMarker builds the Basic Locking matcher. stats may be nil.
func NewMarker(set *rules.Set, db *relation.DB, cs *conflict.Set, stats *metrics.Set) *Matcher {
	return &Matcher{name: "marker", set: set, db: db, cs: cs, stats: stats, f: newMarks(set)}
}

// NewPTree builds the Predicate Indexing matcher. stats may be nil.
func NewPTree(set *rules.Set, db *relation.DB, cs *conflict.Set, stats *metrics.Set) *Matcher {
	return &Matcher{name: "ptree", set: set, db: db, cs: cs, stats: stats, f: &rtree{ix: ptree.NewIndex(set, stats)}}
}

// Name implements match.Matcher.
func (m *Matcher) Name() string { return m.name }

// String describes the matcher.
func (m *Matcher) String() string { return fmt.Sprintf("%s(%d rules)", m.name, len(m.set.Rules)) }

// ConflictSet implements match.Matcher.
func (m *Matcher) ConflictSet() *conflict.Set { return m.cs }

// SetTracer implements match.Matcher: filter searches and join
// re-evaluations are emitted as trace events.
func (m *Matcher) SetTracer(tr *trace.Tracer) { m.tr = tr }

// SetPlanner implements match.Matcher: re-evaluations run under the
// planner's cost-based join order (nil restores source order).
func (m *Matcher) SetPlanner(p *joiner.Planner) { m.pl = p }

// Insert implements match.Matcher as a one-entry batch.
func (m *Matcher) Insert(class string, id relation.TupleID, t relation.Tuple) error {
	return m.InsertBatch(class, []relation.DeltaEntry{{ID: id, Tuple: t}})
}

// Delete implements match.Matcher as a one-entry batch.
func (m *Matcher) Delete(class string, id relation.TupleID, t relation.Tuple) error {
	return m.DeleteBatch(class, []relation.DeltaEntry{{ID: id, Tuple: t}})
}

// InsertBatch implements match.Matcher. The WM relations already hold
// every entry.
func (m *Matcher) InsertBatch(class string, entries []relation.DeltaEntry) error {
	m.f.inserted(m, class, entries)
	return nil
}

// DeleteBatch implements match.Matcher: the instantiations the entries
// support are retracted, then the filter re-derives the rules the
// deletion may have unblocked.
func (m *Matcher) DeleteBatch(class string, entries []relation.DeltaEntry) error {
	for _, e := range entries {
		m.cs.RemoveByTuple(class, e.ID)
	}
	m.f.deleted(m, class, entries)
	return nil
}

// AuditDerived implements match.Matcher over the filter's state.
func (m *Matcher) AuditDerived(db *relation.DB, only map[string]bool, emit func(match.Divergence)) {
	m.f.audit(m, db, only, emit)
}

// RebuildRules implements match.Matcher over the filter's state.
func (m *Matcher) RebuildRules(db *relation.DB, only map[string]bool) error {
	return m.f.rebuild(m, db, only)
}

// CorruptDerived implements match.Matcher over the filter's state; it
// returns "" when the filter keeps none, and audit.Corrupt damages the
// conflict set instead.
func (m *Matcher) CorruptDerived(rng *rand.Rand) string { return m.f.corrupt(m, rng) }

// MarkCount reports the number of (tuple, rule) markers Basic Locking
// stores — the space cost of the scheme, to compare against pattern and
// token storage. The other filters store none.
func (m *Matcher) MarkCount() int {
	n := 0
	if k, ok := m.f.(*marks); ok {
		for _, set := range k.onTuple {
			n += len(set)
		}
	}
	return n
}

// verify re-checks condition element ce against entries. A negated one
// retracts the instantiations the entries block. A positive one groups
// the entries by the values ce's variable tests read, runs one join
// pinned to each group's first entry and replays every match for each
// member; it returns the number of instantiations derived. Grouping
// trusts the entries to pass ce's variable-free tests; a lone entry need
// not, since the pinned join checks it.
func (m *Matcher) verify(ce *rules.CE, entries []relation.DeltaEntry) int64 {
	if ce.Negated {
		m.cs.RemoveBlocked(ce, entries)
		return 0
	}
	groups := [][]relation.DeltaEntry{entries}
	if len(entries) != 1 {
		groups = groupByJoinKey(ce, entries)
	}
	for _, group := range groups {
		t0, before := m.tr.Now(), len(m.ins)
		pin := &joiner.Pin{CE: ce.Index, ID: group[0].ID, Tuple: group[0].Tuple}
		m.pl.Enumerate(m.db, ce.Rule, pin, m.stats, func(ids []relation.TupleID, tuples []relation.Tuple, _ rules.Bindings) {
			for _, e := range group {
				in := conflict.NewInstantiation(ce.Rule, ids, tuples)
				in.TupleIDs[ce.Index], in.Tuples[ce.Index] = e.ID, e.Tuple
				m.f.derived(ce.Rule, in.TupleIDs)
				m.ins = append(m.ins, in)
			}
		})
		m.emit(t0, trace.Event{Kind: trace.KindJoinEval, Rule: ce.Rule.Name, CE: ce.Index,
			Class: ce.Class, ID: uint64(pin.ID), Count: int64(len(m.ins) - before)})
	}
	return m.addDerived()
}

// rederive re-evaluates rule r from scratch and adds every instantiation
// — what a deletion that may unblock a negated condition element needs.
// ce and class attribute the trace event (ce -1: the whole rule). It
// returns the number of instantiations derived.
func (m *Matcher) rederive(r *rules.Rule, ce int, class string) int64 {
	t0 := m.tr.Now()
	m.pl.Enumerate(m.db, r, nil, m.stats, func(ids []relation.TupleID, tuples []relation.Tuple, _ rules.Bindings) {
		in := conflict.NewInstantiation(r, ids, tuples)
		m.f.derived(r, in.TupleIDs)
		m.ins = append(m.ins, in)
	})
	n := m.addDerived()
	m.emit(t0, trace.Event{Kind: trace.KindJoinEval, Rule: r.Name, CE: ce, Class: class, Count: n})
	return n
}

// addDerived adds the buffered instantiations to the conflict set in one
// call, empties the buffer and returns how many it held.
func (m *Matcher) addDerived() int64 {
	m.cs.AddAll(m.ins)
	n := int64(len(m.ins))
	clear(m.ins)
	m.ins = m.ins[:0]
	return n
}

// emit is the matcher's one trace site: ev, timed from t0, when tracing
// is on.
func (m *Matcher) emit(t0 time.Duration, ev trace.Event) {
	if m.tr.Enabled() {
		ev.At, ev.Dur = t0, m.tr.Now()-t0
		m.tr.Emit(ev)
	}
}

// groupByJoinKey splits entries into groups that agree at every
// variable-test position of ce, in first-appearance order. The pinned
// join consults a tuple only at those positions, so members of one group
// that pass ce's variable-free tests join under identical bindings.
func groupByJoinKey(ce *rules.CE, entries []relation.DeltaEntry) [][]relation.DeltaEntry {
	index := map[string]int{}
	var groups [][]relation.DeltaEntry
	var key []byte
	for _, e := range entries {
		key = key[:0]
		for _, vt := range ce.VarTests {
			// The kind, then the quoted spelling: no two distinct value
			// lists render alike.
			v := e.Tuple[vt.Pos]
			key = strconv.AppendQuote(strconv.AppendInt(key, int64(v.Kind()), 10), v.String())
		}
		i, seen := index[string(key)]
		if !seen {
			i = len(groups)
			index[string(key)] = i
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], e)
	}
	return groups
}

// stateless is the audit side of a filter that keeps no derived state
// beyond the conflict set, which the auditor checks itself.
type stateless struct{}

func (stateless) derived(*rules.Rule, []relation.TupleID)                               {}
func (stateless) audit(*Matcher, *relation.DB, map[string]bool, func(match.Divergence)) {}
func (stateless) rebuild(*Matcher, *relation.DB, map[string]bool) error                 { return nil }
func (stateless) corrupt(*Matcher, *rand.Rand) string                                   { return "" }

// scan is the simplified algorithm's search (§4.1): every condition
// element on the class is a candidate, alpha-tested against the entries.
type scan struct{ stateless }

// inserted verifies each condition element on the class against the
// entries that pass its variable-free tests; a negated one, against all.
func (scan) inserted(m *Matcher, class string, entries []relation.DeltaEntry) {
	for _, ce := range m.set.ByClass[class] {
		m.stats.Inc(metrics.PatternSearches)
		if ce.Negated {
			m.verify(ce, entries)
			continue
		}
		t0 := m.tr.Now()
		pass := m.pass[:0]
		for _, e := range entries {
			if ce.MatchAlpha(e.Tuple) {
				pass = append(pass, e)
			}
		}
		m.emit(t0, trace.Event{Kind: trace.KindCondScan, Rule: ce.Rule.Name, CE: ce.Index, Class: class, Count: int64(len(entries))})
		if len(pass) > 0 {
			m.verify(ce, pass)
		}
		clear(pass)
		m.pass = pass[:0]
	}
}

// deleted re-derives, once per batch, each rule with a negated condition
// element on the class.
func (scan) deleted(m *Matcher, class string, _ []relation.DeltaEntry) {
	seen := map[*rules.Rule]bool{}
	for _, ce := range m.set.ByClass[class] {
		m.stats.Inc(metrics.PatternSearches)
		if ce.Negated && !seen[ce.Rule] {
			seen[ce.Rule] = true
			m.rederive(ce.Rule, ce.Index, class)
		}
	}
}
