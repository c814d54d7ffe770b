package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"

	"prodsys/internal/match"
	"prodsys/internal/metrics"
	"prodsys/internal/relation"
	"prodsys/internal/rules"
)

// This file implements the integrity-audit hooks over the COND
// relations: the ground truth of every matching pattern and its Mark
// counters (§4.2.2) is recomputed by replaying the maintenance
// projection over the base WM relations into empty copies of the shape
// indexes, and diffed against the stores.

// expectedSupport replays the maintenance projection from WM: for every
// positive source condition element, each matching WM tuple projects its
// bindings along the source's routes, reproducing exactly the patterns
// and support sets the incremental path should have accumulated. The
// result maps each live shape to its recomputed copy.
func (m *Matcher) expectedSupport(db *relation.DB, only map[string]bool) map[*shape]*shape {
	exp := make(map[*shape]*shape)
	for _, r := range m.set.Rules {
		if only != nil && !only[r.Name] {
			continue
		}
		for _, ce := range r.CEs {
			if ce.Negated {
				continue
			}
			src := m.cond[ce]
			rel, ok := db.Get(ce.Class)
			if len(src.targets) == 0 || !ok {
				continue
			}
			rel.Scan(func(id relation.TupleID, t relation.Tuple) bool {
				if !src.alone(t) {
					return true
				}
				for i := range src.targets {
					ed := &src.targets[i]
					sh := exp[ed.sh]
					if sh == nil {
						sh = ed.sh.empty()
						exp[ed.sh] = sh
					}
					p := sh.find(t, ed.pos)
					if p == nil {
						p = sh.add(t, ed.pos)
					}
					p.addSupport(ed.src, id)
				}
				return true
			})
		}
	}
	return exp
}

// AuditDerived implements match.Matcher: the stores' matching
// patterns and per-RCE support sets are diffed against the ground truth
// recomputed from WM.
func (m *Matcher) AuditDerived(db *relation.DB, only map[string]bool, emit func(match.Divergence)) {
	exp := m.expectedSupport(db, only)
	classes := make([]string, 0, len(m.stores))
	for c := range m.stores {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, class := range classes {
		for _, p := range m.stores[class].patterns() {
			ce := p.sh.ci.ce
			if only != nil && !only[ce.Rule.Name] {
				continue
			}
			key := p.String()
			var want *pattern
			if sh := exp[p.sh]; sh != nil {
				if want = sh.twin(p); want != nil {
					sh.remove(want)
				}
			}
			if want == nil {
				emit(match.Divergence{Class: match.DivPatternPhantom, Rule: ce.Rule.Name, CE: ce.Index, Key: key,
					Expected: "pattern absent", Actual: supportString(p.support)})
				continue
			}
			for _, idx := range supportSources(p.support, want.support) {
				got, truth := p.ids(idx), want.ids(idx)
				if !equalIDs(got, truth) {
					emit(match.Divergence{Class: match.DivMarkCounter, Rule: ce.Rule.Name, CE: ce.Index,
						Key:      key + "#" + strconv.Itoa(idx),
						Expected: idsString(truth), Actual: idsString(got)})
				}
			}
		}
	}
	// Whatever ground truth remains was never materialized.
	var left []*pattern
	for _, sh := range exp {
		sh.each(func(p *pattern) { left = append(left, p) })
	}
	sortPatterns(left)
	for _, p := range left {
		ce := p.sh.ci.ce
		emit(match.Divergence{Class: match.DivPatternMissing, Rule: ce.Rule.Name, CE: ce.Index, Key: p.String(),
			Expected: supportString(p.support), Actual: "pattern absent"})
	}
}

// RebuildRules implements match.Matcher: the selected rules'
// matching patterns are dropped (the original COND tuples are the
// condition elements themselves and stay) and re-derived by replaying the
// maintenance projection over the WM relations. only == nil rebuilds
// every rule.
func (m *Matcher) RebuildRules(db *relation.DB, only map[string]bool) error {
	sel := func(r *rules.Rule) bool { return only == nil || only[r.Name] }
	for _, st := range m.stores {
		for _, ci := range st.conds {
			if !sel(ci.ce.Rule) {
				continue
			}
			for _, sh := range ci.shapes {
				sh.pats, sh.n = make(map[bindKey]*pattern), 0
			}
		}
	}
	for wk, slots := range m.byTuple {
		kept := slots[:0]
		for _, s := range slots {
			if !sel(s.p.sh.ci.ce.Rule) {
				kept = append(kept, s)
			}
		}
		if len(kept) == 0 {
			delete(m.byTuple, wk)
		} else {
			m.byTuple[wk] = kept
		}
	}

	for _, r := range m.set.Rules {
		if !sel(r) {
			continue
		}
		for _, ce := range r.CEs {
			if ce.Negated || len(m.cond[ce].targets) == 0 {
				continue
			}
			rel, ok := db.Get(ce.Class)
			if !ok {
				continue
			}
			var entries []relation.DeltaEntry
			rel.Scan(func(id relation.TupleID, t relation.Tuple) bool {
				entries = append(entries, relation.DeltaEntry{ID: id, Tuple: t})
				return true
			})
			m.maintain([]*condIndex{m.cond[ce]}, entries)
		}
	}
	m.stats.Inc(metrics.MatcherRebuilds)
	return nil
}

// CorruptDerived implements match.Matcher: one matching pattern's Mark
// counter is damaged, either by dropping a real supporting tuple ID or
// by adding a phantom one.
func (m *Matcher) CorruptDerived(rng *rand.Rand) string {
	classes := make([]string, 0, len(m.stores))
	for c := range m.stores {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	var cands []*pattern
	for _, class := range classes {
		for _, p := range m.stores[class].patterns() {
			if len(p.support) > 0 {
				cands = append(cands, p)
			}
		}
	}
	if len(cands) == 0 {
		return ""
	}
	p := cands[rng.Intn(len(cands))]
	idxs := supportSources(p.support, nil)
	idx := idxs[rng.Intn(len(idxs))]
	var s *support
	for i := range p.support {
		if p.support[i].src == idx {
			s = &p.support[i]
		}
	}
	if rng.Intn(2) == 0 && len(s.ids) > 0 {
		id := s.ids[rng.Intn(len(s.ids))]
		s.ids = removeID(s.ids, id)
		return fmt.Sprintf("core: dropped support %s#%d id=%d", p, idx, id)
	}
	bogus := relation.TupleID(1<<40) + relation.TupleID(rng.Intn(1<<16))
	s.ids, _ = insertID(s.ids, bogus)
	return fmt.Sprintf("core: added phantom support %s#%d id=%d", p, idx, bogus)
}

// supportSources lists the contributing condition elements either
// support list names, ascending.
func supportSources(a, b []support) []int {
	var out []int
	for _, list := range [][]support{a, b} {
		for _, s := range list {
			if i := sort.SearchInts(out, s.src); i == len(out) || out[i] != s.src {
				out = append(out, 0)
				copy(out[i+1:], out[i:])
				out[i] = s.src
			}
		}
	}
	return out
}

func equalIDs(a, b []relation.TupleID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func idsString(ids []relation.TupleID) string {
	if len(ids) == 0 {
		return "no supporters"
	}
	return fmt.Sprintf("supporters %v", ids)
}

func supportString(sup []support) string {
	if len(sup) == 0 {
		return "no support"
	}
	parts := make([]string, 0, len(sup))
	for _, i := range supportSources(sup, nil) {
		for _, s := range sup {
			if s.src == i {
				parts = append(parts, fmt.Sprintf("#%d×%d", i, len(s.ids)))
			}
		}
	}
	return fmt.Sprintf("support %v", parts)
}
