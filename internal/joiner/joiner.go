// Package joiner evaluates a rule's LHS as a join query over the working
// memory relations — the set-oriented evaluation the paper contrasts with
// token-at-a-time Rete propagation (§4.1). It is shared by the simplified
// re-evaluation matcher, the matching-pattern matcher's verification step,
// and the engine's set-at-a-time tuple selection (§5.1).
package joiner

import (
	"prodsys/internal/metrics"
	"prodsys/internal/relation"
	"prodsys/internal/rules"
)

// Fixed pins a condition element to one specific tuple (the newly
// inserted WM element seeding an incremental evaluation).
type Fixed struct {
	ID    relation.TupleID
	Tuple relation.Tuple
}

// Emit receives one complete instantiation: tuple IDs and tuples aligned
// with the rule's condition elements (zero/nil at negated positions) and
// the full variable bindings.
type Emit func(ids []relation.TupleID, tuples []relation.Tuple, b rules.Bindings)

// Enumerate backtracks over the rule's condition elements in LHS order,
// selecting candidate tuples from the WM relations in db, honouring
// pinned condition elements and seed bindings. Negated condition elements
// are NOT EXISTS checks under the bindings accumulated so far. Each
// complete combination is emitted once.
func Enumerate(db *relation.DB, r *rules.Rule, fixed map[int]Fixed, seed rules.Bindings, stats *metrics.Set, emit Emit) {
	n := len(r.CEs)
	ids := make([]relation.TupleID, n)
	tuples := make([]relation.Tuple, n)
	if seed == nil {
		seed = rules.Bindings{}
	}
	var rec func(i int, b rules.Bindings)
	rec = func(i int, b rules.Bindings) {
		if i == n {
			emit(append([]relation.TupleID(nil), ids...),
				append([]relation.Tuple(nil), tuples...), b.Clone())
			return
		}
		ce := r.CEs[i]
		if f, pinned := fixed[i]; pinned {
			nb, ok := ce.MatchWith(f.Tuple, b)
			if !ok {
				return
			}
			ids[i], tuples[i] = f.ID, f.Tuple
			rec(i+1, nb)
			ids[i], tuples[i] = 0, nil
			return
		}
		rel, ok := db.Get(ce.Class)
		if !ok {
			if ce.Negated {
				rec(i+1, b) // empty class: negation trivially satisfied
			}
			return
		}
		if ce.Negated {
			// NOT EXISTS: any tuple completing the negated condition under
			// the current bindings blocks this branch.
			if existsMatch(rel, ce, b, stats) {
				return
			}
			rec(i+1, b)
			return
		}
		rs, _ := ce.Restrictions(b)
		stats.Inc(metrics.JoinsComputed)
		for _, cid := range rel.Select(rs) {
			ct, live := rel.Get(cid)
			if !live {
				continue
			}
			stats.Inc(metrics.CandidateChecks)
			nb, ok := ce.MatchWith(ct, b)
			if !ok {
				continue
			}
			ids[i], tuples[i] = cid, ct
			rec(i+1, nb)
			ids[i], tuples[i] = 0, nil
		}
	}
	rec(0, seed)
}

// existsMatch reports whether any live tuple of rel satisfies the
// (negated) condition element under bindings b.
func existsMatch(rel *relation.Relation, ce *rules.CE, b rules.Bindings, stats *metrics.Set) bool {
	rs, _ := ce.Restrictions(b)
	stats.Inc(metrics.JoinsComputed)
	for _, cid := range rel.Select(rs) {
		ct, live := rel.Get(cid)
		if !live {
			continue
		}
		stats.Inc(metrics.CandidateChecks)
		if _, ok := ce.MatchWith(ct, b); ok {
			return true
		}
	}
	return false
}
