package requery

import (
	"fmt"
	"strings"

	"prodsys/internal/conflict"
	"prodsys/internal/joiner"
	"prodsys/internal/metrics"
	"prodsys/internal/relation"
	"prodsys/internal/rules"
	"prodsys/internal/trace"
)

// This file is the simplified algorithm's set-oriented path: where the
// tuple-at-a-time path seeds one join re-evaluation per WM change, a
// batch groups its tuples by join-equivalence and re-evaluates each
// affected condition element's residual join once per distinct group —
// the set-at-a-time processing of §4.1/§5.1 applied to the re-evaluation
// strategy. The batch's instantiations reach the conflict set in one
// pass per condition element.

// joinKey renders the tuple's values at the condition element's
// variable-test positions. MatchWith consults a tuple ONLY at those
// positions, so two alpha-passing tuples with equal keys satisfy the
// element under exactly the same bindings — their residual joins are
// identical.
func joinKey(ce *rules.CE, t relation.Tuple) string {
	var b strings.Builder
	for _, vt := range ce.VarTests {
		v := t[vt.Pos]
		fmt.Fprintf(&b, "%d\x00%s\x00", v.Kind(), v.String())
	}
	return b.String()
}

// InsertBatch implements match.Matcher. For each positive condition
// element, alpha-passing batch tuples are grouped by join key; one group
// representative seeds the rule's LHS evaluation, and every complete
// combination is replayed for each group member — yielding exactly the
// union of the per-tuple seeded evaluations at the cost of one join per
// distinct key.
func (m *Matcher) InsertBatch(class string, entries []relation.DeltaEntry) error {
	for _, ce := range m.set.ByClass[class] {
		m.stats.Inc(metrics.PatternSearches)
		if ce.Negated {
			// One conflict-set sweep per negated CE per batch.
			m.cs.RemoveBlocked(ce, entries)
			continue
		}
		t0 := m.tr.Now()
		groups := make(map[string][]relation.DeltaEntry)
		var order []string
		for _, e := range entries {
			if !ce.MatchAlpha(e.Tuple) {
				continue
			}
			k := joinKey(ce, e.Tuple)
			if _, seen := groups[k]; !seen {
				order = append(order, k)
			}
			groups[k] = append(groups[k], e)
		}
		if m.tr.Enabled() {
			m.tr.Emit(trace.Event{
				Kind: trace.KindCondScan, At: t0, Dur: m.tr.Now() - t0,
				Rule: ce.Rule.Name, CE: ce.Index, Class: class, Count: int64(len(entries)),
			})
		}
		rule := ce.Rule
		var batch []*conflict.Instantiation
		for _, k := range order {
			group := groups[k]
			rep := group[0]
			tJoin := m.tr.Now()
			var found int64
			pin := &joiner.Pin{CE: ce.Index, ID: rep.ID, Tuple: rep.Tuple}
			m.pl.Enumerate(m.db, rule, pin, m.stats, func(ids []relation.TupleID, tuples []relation.Tuple, _ rules.Bindings) {
				for _, member := range group {
					in := conflict.NewInstantiation(rule, ids, tuples)
					in.TupleIDs[ce.Index], in.Tuples[ce.Index] = member.ID, member.Tuple
					batch = append(batch, in)
					found++
				}
			})
			if m.tr.Enabled() {
				m.tr.Emit(trace.Event{
					Kind: trace.KindJoinEval, At: tJoin, Dur: m.tr.Now() - tJoin,
					Rule: rule.Name, CE: ce.Index, Class: class, ID: uint64(rep.ID), Count: found,
				})
			}
		}
		m.cs.AddAll(batch)
	}
	return nil
}

// DeleteBatch implements match.Matcher: instantiations supported by
// the deleted tuples are retracted, and each rule negatively dependent on
// the class is re-derived once for the whole batch instead of once per
// deleted tuple.
func (m *Matcher) DeleteBatch(class string, entries []relation.DeltaEntry) error {
	for _, e := range entries {
		m.cs.RemoveByTuple(class, e.ID)
	}
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
