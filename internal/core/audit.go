package core

import (
	"fmt"
	"math/rand"
	"sort"

	"prodsys/internal/audit"
	"prodsys/internal/metrics"
	"prodsys/internal/relation"
	"prodsys/internal/rules"
)

// This file implements the integrity-audit hooks over the COND
// relations: the ground truth of every matching pattern and its Mark
// counters (§4.2.2) is recomputed by replaying the maintenance
// projection over the base WM relations and diffed against the stores.

// expEntry is the recomputed ground truth of one matching pattern.
type expEntry struct {
	ce  *rules.CE
	sup map[int]idSet
}

// expectedSupport replays the maintenance projection from WM: for every
// positive source condition element, each matching WM tuple projects its
// bindings onto the source's targets, reproducing exactly the patterns
// and support sets the incremental path should have accumulated.
func (m *Matcher) expectedSupport(db *relation.DB, only map[string]bool) map[string]*expEntry {
	exp := make(map[string]*expEntry)
	for _, r := range m.set.Rules {
		if only != nil && !only[r.Name] {
			continue
		}
		for _, src := range r.CEs {
			if src.Negated {
				continue
			}
			targets := m.targets[src]
			if len(targets) == 0 {
				continue
			}
			rel, ok := db.Get(src.Class)
			if !ok {
				continue
			}
			srcIdx := src.Index
			rel.Scan(func(id relation.TupleID, t relation.Tuple) bool {
				tb, ok := src.MatchPattern(t, nil)
				if !ok {
					return true
				}
				for _, j := range targets {
					target := r.CEs[j]
					proj := rules.Bindings{}
					for _, v := range target.Vars() {
						if val, ok := tb[v]; ok {
							proj[v] = val
						}
					}
					if len(proj) == 0 {
						continue
					}
					key := patternKey(target, proj)
					e := exp[key]
					if e == nil {
						e = &expEntry{ce: target, sup: make(map[int]idSet)}
						exp[key] = e
					}
					set := e.sup[srcIdx]
					if set == nil {
						set = make(idSet)
						e.sup[srcIdx] = set
					}
					set[id] = struct{}{}
				}
				return true
			})
		}
	}
	return exp
}

// AuditDerived implements audit.DerivedAuditor: the stores' matching
// patterns and per-RCE support sets are diffed against the ground truth
// recomputed from WM.
func (m *Matcher) AuditDerived(db *relation.DB, only map[string]bool, emit func(audit.Divergence)) {
	exp := m.expectedSupport(db, only)
	classes := make([]string, 0, len(m.stores))
	for c := range m.stores {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, class := range classes {
		for _, p := range m.stores[class].patterns() {
			key := p.key
			rname := p.ce.Rule.Name
			if only != nil && !only[rname] {
				continue
			}
			e := exp[key]
			delete(exp, key)
			if e == nil {
				if p.original {
					// Original COND tuples carry no support by construction.
					if len(p.support) > 0 {
						emit(audit.Divergence{Class: audit.DivMarkCounter, Rule: rname, CE: p.ce.Index, Key: key,
							Expected: "no support on original COND tuple",
							Actual:   fmt.Sprintf("%d support slot(s)", len(p.support))})
					}
					continue
				}
				emit(audit.Divergence{Class: audit.DivPatternPhantom, Rule: rname, CE: p.ce.Index, Key: key,
					Expected: "pattern absent", Actual: supportString(p.support)})
				continue
			}
			idxSet := map[int]bool{}
			for i := range p.support {
				idxSet[i] = true
			}
			for i := range e.sup {
				idxSet[i] = true
			}
			idxs := make([]int, 0, len(idxSet))
			for i := range idxSet {
				idxs = append(idxs, i)
			}
			sort.Ints(idxs)
			for _, idx := range idxs {
				got, want := p.support[idx], e.sup[idx]
				if !sameIDSet(got, want) {
					emit(audit.Divergence{Class: audit.DivMarkCounter, Rule: rname, CE: p.ce.Index,
						Key:      fmt.Sprintf("%s#%d", key, idx),
						Expected: idsString(want), Actual: idsString(got)})
				}
			}
		}
	}
	// Whatever ground truth remains was never materialized.
	left := make([]string, 0, len(exp))
	for k := range exp {
		left = append(left, k)
	}
	sort.Strings(left)
	for _, key := range left {
		e := exp[key]
		emit(audit.Divergence{Class: audit.DivPatternMissing, Rule: e.ce.Rule.Name, CE: e.ce.Index, Key: key,
			Expected: supportString(e.sup), Actual: "pattern absent"})
	}
}

// RebuildRules implements audit.DerivedRebuilder: the selected rules'
// derived patterns are dropped (originals keep their COND tuples but
// shed support) and re-derived by replaying the maintenance projection
// over the WM relations. only == nil rebuilds every rule.
func (m *Matcher) RebuildRules(db *relation.DB, only map[string]bool) error {
	sel := func(r *rules.Rule) bool { return only == nil || only[r.Name] }
	for _, st := range m.stores {
		st.mu.Lock()
		for key, p := range st.byKey {
			if !sel(p.ce.Rule) {
				continue
			}
			if p.original {
				p.support = make(map[int]idSet)
				continue
			}
			delete(st.byKey, key)
		}
		for k, list := range st.byCE {
			if !sel(k.rule) {
				continue
			}
			kept := list[:0]
			for _, p := range list {
				if p.original {
					kept = append(kept, p)
				}
			}
			st.byCE[k] = kept
		}
		st.mu.Unlock()
	}
	m.refMu.Lock()
	for wk, slots := range m.byTuple {
		kept := slots[:0]
		for _, s := range slots {
			if !sel(s.p.ce.Rule) {
				kept = append(kept, s)
			}
		}
		if len(kept) == 0 {
			delete(m.byTuple, wk)
		} else {
			m.byTuple[wk] = kept
		}
	}
	m.refMu.Unlock()

	for _, r := range m.set.Rules {
		if !sel(r) {
			continue
		}
		for _, src := range r.CEs {
			if src.Negated || len(m.targets[src]) == 0 {
				continue
			}
			rel, ok := db.Get(src.Class)
			if !ok {
				continue
			}
			src := src
			rel.Scan(func(id relation.TupleID, t relation.Tuple) bool {
				if tb, ok := src.MatchPattern(t, nil); ok {
					m.propagate(src, id, tb)
				}
				return true
			})
		}
	}
	m.stats.Inc(metrics.MatcherRebuilds)
	return nil
}

// CorruptDerived implements audit.Corrupter: one derived pattern's Mark
// counter is damaged, either by dropping a real supporting tuple ID or
// by adding a phantom one.
func (m *Matcher) CorruptDerived(rng *rand.Rand) string {
	classes := make([]string, 0, len(m.stores))
	for c := range m.stores {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	type cand struct {
		st  *store
		key string
	}
	var cands []cand
	for _, class := range classes {
		st := m.stores[class]
		for _, p := range st.patterns() {
			if !p.original && len(p.support) > 0 {
				cands = append(cands, cand{st: st, key: p.key})
			}
		}
	}
	if len(cands) == 0 {
		return ""
	}
	c := cands[rng.Intn(len(cands))]
	c.st.mu.Lock()
	defer c.st.mu.Unlock()
	p := c.st.byKey[c.key]
	if p == nil || len(p.support) == 0 {
		return ""
	}
	idxs := make([]int, 0, len(p.support))
	for i := range p.support {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	idx := idxs[rng.Intn(len(idxs))]
	set := p.support[idx]
	if rng.Intn(2) == 0 && len(set) > 0 {
		ids := make([]relation.TupleID, 0, len(set))
		for id := range set {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		id := ids[rng.Intn(len(ids))]
		delete(set, id)
		return fmt.Sprintf("core: dropped support %s#%d id=%d", c.key, idx, id)
	}
	bogus := relation.TupleID(1<<40) + relation.TupleID(rng.Intn(1<<16))
	set[bogus] = struct{}{}
	return fmt.Sprintf("core: added phantom support %s#%d id=%d", c.key, idx, bogus)
}

func sameIDSet(a, b idSet) bool {
	if len(a) != len(b) {
		return false
	}
	for id := range a {
		if _, ok := b[id]; !ok {
			return false
		}
	}
	return true
}

func idsString(s idSet) string {
	if len(s) == 0 {
		return "no supporters"
	}
	ids := make([]relation.TupleID, 0, len(s))
	for id := range s {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return fmt.Sprintf("supporters %v", ids)
}

func supportString(sup map[int]idSet) string {
	if len(sup) == 0 {
		return "no support"
	}
	idxs := make([]int, 0, len(sup))
	for i := range sup {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	parts := make([]string, 0, len(idxs))
	for _, i := range idxs {
		parts = append(parts, fmt.Sprintf("#%d×%d", i, len(sup[i])))
	}
	return fmt.Sprintf("support %v", parts)
}
