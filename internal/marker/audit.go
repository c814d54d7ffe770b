package marker

import (
	"fmt"
	"math/rand"

	"prodsys/internal/conflict"
	"prodsys/internal/joiner"
	"prodsys/internal/match"
	"prodsys/internal/metrics"
	"prodsys/internal/relation"
	"prodsys/internal/rules"
)

// This file implements the integrity-audit hooks for Basic Locking.
// The invariant audited is one-sided: every tuple supporting a live
// instantiation must still carry that rule's marker, or a future WM
// update touching it would be silently dropped. Stale markers on tuples
// that no longer support a match are by design (the algorithm tolerates
// false drops), so no phantom class is reported.

// AuditDerived implements match.Matcher: for each selected rule,
// the full LHS join is recomputed from WM and each supporting tuple's
// marker checked.
func (m *Matcher) AuditDerived(db *relation.DB, only map[string]bool, emit func(match.Divergence)) {
	for _, r := range m.set.Rules {
		if only != nil && !only[r.Name] {
			continue
		}
		r := r
		joiner.Enumerate(db, r, nil, m.stats, func(ids []relation.TupleID, _ []relation.Tuple, _ rules.Bindings) {
			in := conflict.Instantiation{Rule: r, TupleIDs: ids}
			if m.cs.HasFired(in.Key()) {
				return
			}
			for i, ce := range r.CEs {
				if ce.Negated {
					continue
				}
				key := tupleKey{class: ce.Class, id: ids[i]}
				_, marked := m.marks[key][r]
				if !marked {
					emit(match.Divergence{Class: match.DivMarkMissing, Rule: r.Name, CE: i,
						Key:      fmt.Sprintf("%s:%d", ce.Class, ids[i]),
						Expected: "tuple marked with rule", Actual: "no marker"})
				}
			}
		})
	}
}

// RebuildRules implements match.Matcher: the selected rules'
// markers are re-derived by re-running their LHS joins and re-marking
// every supporting tuple. Existing markers are left in place (stale
// ones are harmless).
func (m *Matcher) RebuildRules(db *relation.DB, only map[string]bool) error {
	for _, r := range m.set.Rules {
		if only != nil && !only[r.Name] {
			continue
		}
		r := r
		joiner.Enumerate(db, r, nil, m.stats, func(ids []relation.TupleID, _ []relation.Tuple, _ rules.Bindings) {
			m.markInstantiation(r, ids)
		})
	}
	m.stats.Inc(metrics.MatcherRebuilds)
	return nil
}

// CorruptDerived implements match.Matcher: one marker required by a
// live instantiation is removed, simulating a lost mark bit.
func (m *Matcher) CorruptDerived(rng *rand.Rand) string {
	type cand struct {
		in    *conflict.Instantiation
		ceIdx int
	}
	var cands []cand
	for _, in := range m.cs.SelectAll() {
		for i, ce := range in.Rule.CEs {
			if ce.Negated {
				continue
			}
			_, marked := m.marks[tupleKey{class: ce.Class, id: in.TupleIDs[i]}][in.Rule]
			if marked {
				cands = append(cands, cand{in: in, ceIdx: i})
			}
		}
	}
	if len(cands) == 0 {
		return ""
	}
	c := cands[rng.Intn(len(cands))]
	ce := c.in.Rule.CEs[c.ceIdx]
	key := tupleKey{class: ce.Class, id: c.in.TupleIDs[c.ceIdx]}
	delete(m.marks[key], c.in.Rule)
	if len(m.marks[key]) == 0 {
		delete(m.marks, key)
	}
	return fmt.Sprintf("marker: unmarked %s:%d for rule %s", ce.Class, key.id, c.in.Rule.Name)
}
