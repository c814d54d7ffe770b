package recheck

import (
	"fmt"
	"math/rand"

	"prodsys/internal/match"
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
	stateless // derived: the index does not depend on WM
	ix        *ptree.Index
}

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
	byCE := map[*rules.CE][]relation.DeltaEntry{}
	var ces []*rules.CE
	for _, e := range entries {
		for _, ce := range x.probe(m, class, e) {
			m.stats.Inc(metrics.PatternSearches)
			if byCE[ce] == nil {
				ces = append(ces, ce)
			}
			byCE[ce] = append(byCE[ce], e)
		}
	}
	for _, ce := range ces {
		m.verify(ce, byCE[ce])
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

// audit checks the index against the rule set: every condition element
// is in its class's tree, and nothing else is. Rectangles are recomputed
// from each element, so presence is the whole invariant.
func (x *rtree) audit(m *Matcher, _ *relation.DB, only map[string]bool, emit func(match.Divergence)) {
	for _, class := range m.set.ClassNames() {
		// report emits a divergence for each of ces, within only, that
		// others lacks.
		report := func(ces, others []*rules.CE, div, expected, actual string) {
			in := map[*rules.CE]bool{}
			for _, ce := range others {
				in[ce] = true
			}
			for _, ce := range ces {
				if !in[ce] && (only == nil || only[ce.Rule.Name]) {
					emit(match.Divergence{Class: div, Rule: ce.Rule.Name, CE: ce.Index,
						Key: fmt.Sprintf("%s/%s#%d", class, ce.Rule.Name, ce.Index), Expected: expected, Actual: actual})
				}
			}
		}
		indexed := x.ix.Conditions(class)
		report(m.set.ByClass[class], indexed, match.DivIndexMissing, "condition element indexed", "absent from condition R-tree")
		report(indexed, m.set.ByClass[class], match.DivIndexPhantom, "absent", "foreign entry in condition R-tree")
	}
}

// rebuild reindexes everything regardless of only: the index is static
// per rule set.
func (x *rtree) rebuild(m *Matcher, _ *relation.DB, _ map[string]bool) error {
	x.ix = ptree.NewIndex(m.set, m.stats)
	m.stats.Inc(metrics.MatcherRebuilds)
	return nil
}

// corrupt rebuilds the index with one randomly chosen condition element
// left out — the derived-index analogue of a lost COND tuple.
func (x *rtree) corrupt(m *Matcher, rng *rand.Rand) string {
	var all []*rules.CE
	for _, class := range m.set.ClassNames() {
		all = append(all, m.set.ByClass[class]...)
	}
	if len(all) == 0 {
		return ""
	}
	drop := all[rng.Intn(len(all))]
	x.ix = ptree.NewIndex(m.set, m.stats, drop)
	return fmt.Sprintf("ptree: dropped %s CE %d on %s from the condition index", drop.Rule.Name, drop.Index, drop.Class)
}
