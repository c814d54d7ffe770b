package recheck

import (
	"fmt"

	"prodsys/internal/metrics"
	"prodsys/internal/ptree"
	"prodsys/internal/relation"
	"prodsys/internal/rules"
	"prodsys/internal/trace"
)

// rtree is the Predicate Indexing search [STON86a]: the simplified
// algorithm with the COND scan replaced by a probe of the condition
// R-tree — sublinear in the number of conditions. The probe
// alpha-verifies what it finds, so a batch's entries are grouped per
// condition element and verified together.
type rtree struct {
	ix *ptree.Index
}

// derived is a no-op: the index does not depend on WM.
func (*rtree) derived(*rules.Rule, []relation.TupleID) {}

// probe returns the condition elements whose rectangles admit e.
func (x *rtree) probe(m *Matcher, class string, e relation.DeltaEntry) []*rules.CE {
	t0 := m.tr.Now()
	ces := x.ix.CandidatesFor(class, e.Tuple)
	m.emit(t0, trace.Event{Kind: trace.KindCondScan, CE: -1, Class: class, ID: uint64(e.ID), Count: int64(len(ces))})
	return ces
}

// inserted verifies each condition element the probes admit once per
// batch, against every entry that admitted it.
func (x *rtree) inserted(m *Matcher, class string, entries []relation.DeltaEntry) {
	if len(entries) == 1 {
		for _, ce := range x.probe(m, class, entries[0]) {
			m.stats.Inc(metrics.PatternSearches)
			m.verify(ce, entries)
		}
		return
	}
	hits := map[*rules.CE][]relation.DeltaEntry{}
	var ces []*rules.CE
	for _, e := range entries {
		for _, ce := range x.probe(m, class, e) {
			m.stats.Inc(metrics.PatternSearches)
			if hits[ce] == nil {
				ces = append(ces, ce)
			}
			hits[ce] = append(hits[ce], e)
		}
	}
	for _, ce := range ces {
		m.verify(ce, hits[ce])
	}
}

// deleted re-derives, once per batch, each rule with a negated condition
// element the deleted entries fall in.
func (x *rtree) deleted(m *Matcher, class string, entries []relation.DeltaEntry) {
	seen := map[*rules.Rule]bool{}
	for _, e := range entries {
		for _, ce := range x.probe(m, class, e) {
			if ce.Negated && !seen[ce.Rule] {
				seen[ce.Rule] = true
				m.rederive(ce.Rule, ce.Index, class)
			}
		}
	}
}

// dump lists the condition elements the R-tree indexes, per class. The
// index depends on the rule set only, so a twin built from the same
// rules lists exactly the elements a sound index holds.
func (x *rtree) dump(m *Matcher, only map[string]bool, emit func(rule, line string)) {
	for _, class := range m.set.ClassNames() {
		for _, ce := range x.ix.Conditions(class) {
			if only == nil || only[ce.Rule.Name] {
				emit(ce.Rule.Name, fmt.Sprintf("index %s ce%d", class, ce.Index))
			}
		}
	}
}
