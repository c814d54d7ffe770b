// Package requery implements the paper's simplified algorithm (§4.1):
// no intermediate storage at all. One COND relation per working-memory
// class records the condition elements referring to that class; every WM
// change searches the COND relation and re-evaluates the affected rules'
// LHS joins against the base WM relations.
//
// The trade-off is exactly the one the paper states: minimal space (no
// matching patterns, no tokens) against join recomputation on every
// change. It also serves as the correctness oracle for the other
// matchers, being a direct transcription of the declarative semantics.
package requery

import (
	"fmt"
	"math/rand"

	"prodsys/internal/conflict"
	"prodsys/internal/joiner"
	"prodsys/internal/match"
	"prodsys/internal/metrics"
	"prodsys/internal/relation"
	"prodsys/internal/rules"
	"prodsys/internal/trace"
)

// Matcher is the simplified re-evaluation matcher.
type Matcher struct {
	set   *rules.Set
	db    *relation.DB
	cs    *conflict.Set
	stats *metrics.Set
	tr    *trace.Tracer
	pl    *joiner.Planner
}

// SetTracer implements match.Matcher: COND-relation searches and join
// re-evaluations are emitted as trace events.
func (m *Matcher) SetTracer(tr *trace.Tracer) { m.tr = tr }

// SetPlanner implements match.Matcher: LHS re-evaluations run under
// the planner's cost-based join order (nil restores source order).
func (m *Matcher) SetPlanner(p *joiner.Planner) { m.pl = p }

// New builds the matcher over the engine's WM catalog. The catalog must
// already contain a relation per declared class (rules.BuildDB). stats
// may be nil.
func New(set *rules.Set, db *relation.DB, cs *conflict.Set, stats *metrics.Set) *Matcher {
	return &Matcher{set: set, db: db, cs: cs, stats: stats}
}

// Name implements match.Matcher.
func (m *Matcher) Name() string { return "requery" }

// ConflictSet implements match.Matcher.
func (m *Matcher) ConflictSet() *conflict.Set { return m.cs }

// Insert implements match.Matcher. The WM relation already contains the
// tuple. Each condition element on the class (one COND-relation search)
// either seeds a join re-evaluation (positive CE) or retracts
// instantiations it now blocks (negated CE).
func (m *Matcher) Insert(class string, id relation.TupleID, t relation.Tuple) error {
	for _, ce := range m.set.ByClass[class] {
		m.stats.Inc(metrics.PatternSearches)
		if ce.Negated {
			m.cs.RemoveBlocked(ce, []relation.DeltaEntry{{ID: id, Tuple: t}})
			continue
		}
		t0 := m.tr.Now()
		pass := ce.MatchAlpha(t)
		if m.tr.Enabled() {
			m.tr.Emit(trace.Event{
				Kind: trace.KindCondScan, At: t0, Dur: m.tr.Now() - t0,
				Rule: ce.Rule.Name, CE: ce.Index, Class: class, ID: uint64(id), Count: 1,
			})
		}
		if !pass {
			continue
		}
		m.deriveWithFixed(ce, id, t)
	}
	return nil
}

// Delete implements match.Matcher. The WM relation no longer contains the
// tuple. Instantiations supported by it are retracted; rules negatively
// dependent on the class are re-derived, since the deletion may have
// unblocked them.
func (m *Matcher) Delete(class string, id relation.TupleID, _ relation.Tuple) error {
	m.cs.RemoveByTuple(class, id)
	seen := map[*rules.Rule]bool{}
	for _, ce := range m.set.ByClass[class] {
		m.stats.Inc(metrics.PatternSearches)
		if !ce.Negated || seen[ce.Rule] {
			continue
		}
		seen[ce.Rule] = true
		m.deriveAll(ce.Rule, ce.Index)
	}
	return nil
}

// deriveWithFixed evaluates ce.Rule's LHS with ce pinned to the new
// tuple, adding every resulting instantiation.
func (m *Matcher) deriveWithFixed(ce *rules.CE, id relation.TupleID, t relation.Tuple) {
	var found int64
	t0 := m.tr.Now()
	m.pl.Enumerate(m.db, ce.Rule, &joiner.Pin{CE: ce.Index, ID: id, Tuple: t}, m.stats, func(ids []relation.TupleID, tuples []relation.Tuple, _ rules.Bindings) {
		found++
		m.cs.Add(conflict.NewInstantiation(ce.Rule, ids, tuples))
	})
	if m.tr.Enabled() {
		m.tr.Emit(trace.Event{
			Kind: trace.KindJoinEval, At: t0, Dur: m.tr.Now() - t0,
			Rule: ce.Rule.Name, CE: ce.Index, Class: ce.Class, ID: uint64(id), Count: found,
		})
	}
}

// deriveAll re-evaluates a rule from scratch (used when a blocker of a
// negated condition element disappears). ceIdx attributes the trace
// event to the seeding condition element (-1 when rule-level).
func (m *Matcher) deriveAll(r *rules.Rule, ceIdx int) {
	var found int64
	t0 := m.tr.Now()
	m.pl.Enumerate(m.db, r, nil, m.stats, func(ids []relation.TupleID, tuples []relation.Tuple, _ rules.Bindings) {
		found++
		m.cs.Add(conflict.NewInstantiation(r, ids, tuples))
	})
	if m.tr.Enabled() {
		m.tr.Emit(trace.Event{
			Kind: trace.KindJoinEval, At: t0, Dur: m.tr.Now() - t0,
			Rule: r.Name, CE: ceIdx, Count: found,
		})
	}
}

// AuditDerived implements match.Matcher. The simplified algorithm keeps
// no derived state beyond the conflict set, which the auditor checks
// itself, so there is nothing further to audit.
func (m *Matcher) AuditDerived(*relation.DB, map[string]bool, func(match.Divergence)) {}

// RebuildRules implements match.Matcher: with no derived state there is
// nothing to rebuild; the auditor reconciles the conflict set.
func (m *Matcher) RebuildRules(*relation.DB, map[string]bool) error { return nil }

// CorruptDerived implements match.Matcher: there is no derived state to
// corrupt, so it returns "" and audit.Corrupt damages the conflict set.
func (m *Matcher) CorruptDerived(*rand.Rand) string { return "" }

// Rederive rebuilds the whole conflict set from the current WM contents;
// used by tests as the declarative ground truth.
func (m *Matcher) Rederive() {
	m.cs.RemoveWhere(func(*conflict.Instantiation) bool { return true })
	for _, r := range m.set.Rules {
		m.deriveAll(r, -1)
	}
}

// String describes the matcher.
func (m *Matcher) String() string {
	return fmt.Sprintf("requery(%d rules)", len(m.set.Rules))
}
