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

// Pin fixes one condition element to one specific tuple: the newly
// inserted WM element seeding an incremental evaluation.
type Pin struct {
	CE    int // LHS index of the pinned condition element
	ID    relation.TupleID
	Tuple relation.Tuple
}

// Emit receives one complete instantiation: tuple IDs and tuples aligned
// with the rule's condition elements (zero/nil at negated positions) and
// the rule's slot vector. All three are lent for the duration of the
// call — the join refills them as it backtracks — so a caller that keeps
// a match copies ids and tuples (conflict.NewInstantiation, one
// allocation). The tuples themselves are stored tuples, immutable, and
// may be kept.
type Emit func(ids []relation.TupleID, tuples []relation.Tuple, b rules.Bindings)

// state is one join execution's match under construction: the IDs,
// tuples and bindings the backtracking fills and unfills.
type state struct {
	ids    []relation.TupleID
	tuples []relation.Tuple
	b      rules.Bindings
}

// start allocates an execution's state and pre-binds the pin: every match
// has the pinned condition element satisfied by its tuple, so that
// tuple's equality values bind up front, and condition elements evaluated
// before the pinned one probe their join indexes instead of scanning. ok
// is false when the pinned tuple cannot satisfy its condition element.
func start(r *rules.Rule, pin *Pin) (st state, ok bool) {
	n := len(r.CEs)
	st = state{
		ids:    make([]relation.TupleID, n),
		tuples: make([]relation.Tuple, n),
		b:      make(rules.Bindings, len(r.Vars)),
	}
	if pin != nil {
		if _, ok := r.CEs[pin.CE].MatchPattern(pin.Tuple, st.b); !ok {
			return st, false
		}
	}
	return st, true
}

// Enumerate backtracks over the rule's condition elements in LHS order,
// selecting candidate tuples from the WM relations in db, honouring the
// optional pin. Negated condition elements are NOT EXISTS checks under
// the bindings accumulated so far. Each complete combination is emitted
// once.
func Enumerate(db *relation.DB, r *rules.Rule, pin *Pin, stats *metrics.Set, emit Emit) {
	st, ok := start(r, pin)
	if !ok {
		return
	}
	n := len(r.CEs)
	var rec func(i int)
	// try extends the match with tuple t at condition element i.
	try := func(i int, id relation.TupleID, t relation.Tuple) {
		ce := r.CEs[i]
		u, ok := ce.MatchWith(t, st.b)
		if !ok {
			return
		}
		st.ids[i], st.tuples[i] = id, t
		rec(i + 1)
		st.ids[i], st.tuples[i] = 0, nil
		ce.Unbind(st.b, u)
	}
	rec = func(i int) {
		if i == n {
			emit(st.ids, st.tuples, st.b)
			return
		}
		ce := r.CEs[i]
		if pin != nil && pin.CE == i {
			try(i, pin.ID, pin.Tuple)
			return
		}
		rel, ok := db.Get(ce.Class)
		if !ok {
			if ce.Negated {
				rec(i + 1) // empty class: negation trivially satisfied
			}
			return
		}
		if ce.Negated {
			// NOT EXISTS: any tuple completing the negated condition under
			// the current bindings blocks this branch.
			if existsMatch(rel, ce, st.b, stats) {
				return
			}
			rec(i + 1)
			return
		}
		rs, _ := ce.Restrictions(st.b)
		stats.Inc(metrics.JoinsComputed)
		for _, cid := range rel.Select(rs) {
			ct, live := rel.Get(cid)
			if !live {
				continue
			}
			stats.Inc(metrics.CandidateChecks)
			try(i, cid, ct)
		}
	}
	rec(0)
}

// existsMatch reports whether any live tuple of rel satisfies the
// (negated) condition element under bindings b, which it leaves as it
// found them.
func existsMatch(rel *relation.Relation, ce *rules.CE, b rules.Bindings, stats *metrics.Set) bool {
	rs, _ := ce.Restrictions(b)
	stats.Inc(metrics.JoinsComputed)
	for _, cid := range rel.Select(rs) {
		ct, live := rel.Get(cid)
		if !live {
			continue
		}
		stats.Inc(metrics.CandidateChecks)
		if u, ok := ce.MatchWith(ct, b); ok {
			ce.Unbind(b, u)
			return true
		}
	}
	return false
}
