package core

import (
	"time"

	"prodsys/internal/conflict"
	"prodsys/internal/metrics"
	"prodsys/internal/relation"
	"prodsys/internal/rules"
	"prodsys/internal/trace"
	"prodsys/internal/value"
)

// This file is the matching-pattern algorithm's set-oriented path: one
// batch of same-class WM changes is maintained with one COND-relation
// scan per (class, condition element) pair, propagation grouped so every
// target COND relation is locked (and, under simulated I/O, written)
// once per batch, and — for deletions — one re-derivation per negatively
// dependent rule per batch. This is the set-at-a-time processing the
// paper claims as the DBMS advantage (§4.2, §5.1), applied to the
// maintenance process itself.

// contribution is one projected matching pattern awaiting upsert into a
// target condition element's COND relation.
type contribution struct {
	srcIdx int
	id     relation.TupleID
	bind   rules.Bindings
}

// InsertBatch implements match.BatchMatcher. Unlike the tuple-at-a-time
// path — which updates the conflict set before maintaining the COND
// relations (§4.2.3) — the batch path runs the whole batch's maintenance
// first and detects afterwards, so a tuple whose marks are completed by
// another member of the same batch is still detected. Detection over the
// post-batch COND state sees a superset of the marks any sequential
// ordering would, and the verification join filters the extra candidates
// exactly as it filters false drops.
func (m *Matcher) InsertBatch(class string, entries []relation.DeltaEntry) error {
	m.sweepNegated(class, entries)
	m.maintainInserts(class, entries)
	m.detectInserts(class, entries)
	return nil
}

// sweepNegated retracts, once per negated condition element per batch,
// every instantiation some batch tuple now blocks.
func (m *Matcher) sweepNegated(class string, entries []relation.DeltaEntry) {
	for _, ce := range m.set.ByClass[class] {
		if !ce.Negated {
			continue
		}
		m.stats.Inc(metrics.PatternSearches)
		ceCopy := ce
		m.cs.RemoveWhere(func(in *conflict.Instantiation) bool {
			if in.Rule != ceCopy.Rule {
				return false
			}
			for _, e := range entries {
				if _, blocked := ceCopy.MatchWith(e.Tuple, in.Bindings); blocked {
					return true
				}
			}
			return false
		})
	}
}

// maintainInserts is the maintenance half of an insert batch: project
// every batch tuple's bindings onto its related condition elements,
// grouping the contributions per target CE so each target COND relation
// is touched once per batch.
func (m *Matcher) maintainInserts(class string, entries []relation.DeltaEntry) {
	grouped := make(map[ceKey][]contribution)
	var order []ceKey
	for _, ce := range m.set.ByClass[class] {
		if ce.Negated {
			continue
		}
		targets := m.targets[ce]
		if len(targets) == 0 {
			continue
		}
		for _, e := range entries {
			tb, ok := ce.MatchPattern(e.Tuple, nil)
			if !ok {
				continue
			}
			for _, j := range targets {
				target := ce.Rule.CEs[j]
				proj := rules.Bindings{}
				for _, v := range target.Vars() {
					if val, ok := tb[v]; ok {
						proj[v] = val
					}
				}
				if len(proj) == 0 {
					continue
				}
				k := ceKey{rule: ce.Rule, ce: j}
				if _, seen := grouped[k]; !seen {
					order = append(order, k)
				}
				grouped[k] = append(grouped[k], contribution{srcIdx: ce.Index, id: e.ID, bind: proj})
			}
		}
	}
	if m.parallel && len(order) > 1 {
		m.stats.Inc(metrics.ParallelBatches)
		forwardPanics(len(order), func(i int) {
			m.upsertMany(order[i], grouped[order[i]])
		})
	} else {
		for _, k := range order {
			m.upsertMany(k, grouped[k])
		}
	}
}

// condHashJoinMin is the COND snapshot size below which detectInserts
// keeps the plain nested-loop scan: building the hash buckets costs one
// pass over the snapshot, which only pays off once the per-entry scan it
// replaces is larger than that.
const condHashJoinMin = 16

// detectInserts is the detection half of an insert batch: one
// COND-relation pass per condition element for the whole batch; the
// conflict set is fed incrementally as candidates survive verification.
// The batch is hash-joined against the
// snapshot on the condition element's first equality variable: a pattern
// binding that variable can only match tuples carrying the OPS5-equal
// value at the variable's attribute, so each entry probes one bucket
// plus the patterns leaving the variable unbound, instead of scanning
// the whole snapshot.
func (m *Matcher) detectInserts(class string, entries []relation.DeltaEntry) {
	st := m.stores[class]
	for _, ce := range m.set.ByClass[class] {
		if ce.Negated {
			continue
		}
		m.stats.Inc(metrics.PatternSearches)
		k := ceKey{rule: ce.Rule, ce: ce.Index}
		pats := st.snapshot(k)
		// The probe variable is the equality variable bound by the most
		// patterns — patterns projected from a joining condition element
		// bind the join variables, not this element's locally-bound ones,
		// so the choice has to follow the data, not the source order.
		probePos, probeVar := -1, ""
		if len(pats) >= condHashJoinMin {
			bestCount := 0
			seen := map[string]bool{}
			for _, vt := range ce.VarTests {
				if vt.Op != value.OpEq || seen[vt.Var] {
					continue
				}
				seen[vt.Var] = true
				n := 0
				for _, p := range pats {
					if _, ok := p.bind[vt.Var]; ok {
						n++
					}
				}
				if n > bestCount {
					probePos, probeVar, bestCount = vt.Pos, vt.Var, n
				}
			}
		}
		var buckets map[value.V][]*pattern
		var residual []*pattern
		if probePos >= 0 {
			buckets = make(map[value.V][]*pattern)
			for _, p := range pats {
				if bv, ok := p.bind[probeVar]; ok {
					buckets[bv.Key()] = append(buckets[bv.Key()], p)
				} else {
					residual = append(residual, p)
				}
			}
		}
		var checked int64
		var fires []relation.DeltaEntry
		t0 := m.tr.Now()
		for _, e := range entries {
			var matchedAny bool
			marks := map[int]bool{}
			scan := func(list []*pattern) {
				for _, p := range list {
					checked++
					if _, ok := ce.MatchPattern(e.Tuple, p.bind); !ok {
						continue
					}
					matchedAny = true
					for y, ids := range p.support {
						if len(ids) > 0 {
							marks[y] = true
						}
					}
				}
			}
			if buckets != nil {
				if probePos < len(e.Tuple) {
					scan(buckets[e.Tuple[probePos].Key()])
				}
				scan(residual)
			} else {
				scan(pats)
			}
			if !matchedAny {
				continue
			}
			fire := true
			for _, j := range m.contributors[ce] {
				if !marks[j] {
					fire = false
					break
				}
			}
			if fire {
				fires = append(fires, e)
			}
		}
		m.stats.Add(metrics.CandidateChecks, checked)
		if m.tr.Enabled() {
			m.tr.Emit(trace.Event{
				Kind: trace.KindCondScan, At: t0, Dur: m.tr.Now() - t0,
				Rule: ce.Rule.Name, CE: ce.Index, Class: class, Count: checked,
			})
		}
		for _, e := range fires {
			m.verifyAndEmit(ce, e.ID, e.Tuple)
		}
	}
}

// upsertMany applies a batch of contributions to one COND relation
// under a single store lock (and, when simulated I/O is configured, a
// single page write), then records the new support links under a single
// reverse-index lock.
func (m *Matcher) upsertMany(k ceKey, contribs []contribution) {
	target := k.rule.CEs[k.ce]
	tst := m.stores[target.Class]
	m.stats.Add(metrics.MaintenanceOps, int64(len(contribs)))
	t0 := m.tr.Now()
	if m.tr.Enabled() {
		defer func() {
			m.tr.Emit(trace.Event{
				Kind: trace.KindPatternPropagate, At: t0, Dur: m.tr.Now() - t0,
				Rule: k.rule.Name, CE: k.ce, Class: target.Class, Count: int64(len(contribs)),
			})
		}()
	}
	if m.ioDelay > 0 {
		time.Sleep(m.ioDelay) // one simulated COND-relation page write per batch
	}
	type newLink struct {
		wk     wmeKey
		p      *pattern
		srcIdx int
	}
	var links []newLink
	tst.mu.Lock()
	for _, c := range contribs {
		key := patternKey(target, c.bind)
		p, exists := tst.byKey[key]
		if !exists {
			p = &pattern{
				ce:      target,
				bind:    c.bind,
				support: make(map[int]idSet),
				key:     key,
			}
			tst.byKey[key] = p
			tst.byCE[k] = append(tst.byCE[k], p)
			m.stats.Inc(metrics.PatternsStored)
			m.stats.Inc(metrics.CondTuplesStored)
		}
		set := p.support[c.srcIdx]
		if set == nil {
			set = make(idSet)
			p.support[c.srcIdx] = set
		}
		if _, dup := set[c.id]; !dup {
			set[c.id] = struct{}{}
			links = append(links, newLink{wk: wmeKey{class: k.rule.CEs[c.srcIdx].Class, id: c.id}, p: p, srcIdx: c.srcIdx})
		}
	}
	tst.mu.Unlock()
	if len(links) == 0 {
		return
	}
	m.refMu.Lock()
	for _, l := range links {
		m.byTuple[l.wk] = append(m.byTuple[l.wk], patSlot{p: l.p, ceIdx: l.srcIdx})
	}
	m.refMu.Unlock()
}

// DeleteBatch implements match.BatchMatcher: every batch tuple's support
// withdrawals are grouped per COND relation, instantiations are
// retracted per tuple, and rules negatively dependent on the class are
// re-derived once for the whole batch instead of once per deleted tuple.
func (m *Matcher) DeleteBatch(class string, entries []relation.DeltaEntry) error {
	m.withdrawDeletes(class, entries)
	m.detectDeletes(class, entries)
	return nil
}

// withdrawDeletes is the maintenance half of a delete batch: the
// support slots fed by the batch tuples are withdrawn (the counter
// decrement of §4.2.2), grouped per COND relation — one lock
// acquisition per touched relation per batch.
func (m *Matcher) withdrawDeletes(class string, entries []relation.DeltaEntry) {
	type slotRef struct {
		slot patSlot
		id   relation.TupleID
	}
	var slots []slotRef
	m.refMu.Lock()
	for _, e := range entries {
		wk := wmeKey{class: class, id: e.ID}
		for _, s := range m.byTuple[wk] {
			slots = append(slots, slotRef{slot: s, id: e.ID})
		}
		delete(m.byTuple, wk)
	}
	m.refMu.Unlock()

	byStore := make(map[*store][]slotRef)
	var storeOrder []*store
	for _, sr := range slots {
		st := m.stores[sr.slot.p.ce.Class]
		if _, seen := byStore[st]; !seen {
			storeOrder = append(storeOrder, st)
		}
		byStore[st] = append(byStore[st], sr)
	}
	for _, st := range storeOrder {
		st.mu.Lock()
		for _, sr := range byStore[st] {
			p := sr.slot.p
			if set := p.support[sr.slot.ceIdx]; set != nil {
				delete(set, sr.id)
				if len(set) == 0 {
					delete(p.support, sr.slot.ceIdx)
				}
			}
			if !p.original && len(p.support) == 0 {
				if _, live := st.byKey[p.key]; live {
					delete(st.byKey, p.key)
					k := ceKey{rule: p.ce.Rule, ce: p.ce.Index}
					list := st.byCE[k]
					for i, q := range list {
						if q == p {
							st.byCE[k] = append(list[:i], list[i+1:]...)
							break
						}
					}
					m.stats.Inc(metrics.PatternsDeleted)
				}
			}
		}
		st.mu.Unlock()
	}
}

// detectDeletes is the detection half of a delete batch: retract the
// instantiations built on the deleted tuples and re-derive negatively
// dependent rules — once per rule per batch — against final WM state.
func (m *Matcher) detectDeletes(class string, entries []relation.DeltaEntry) {
	for _, e := range entries {
		m.cs.RemoveByTuple(class, e.ID)
	}

	seen := map[*rules.Rule]bool{}
	for _, ce := range m.set.ByClass[class] {
		if !ce.Negated || seen[ce.Rule] {
			continue
		}
		seen[ce.Rule] = true
		var found int64
		t0 := m.tr.Now()
		m.pl.Enumerate(m.db, ce.Rule, nil, nil, m.stats, func(ids []relation.TupleID, tuples []relation.Tuple, b rules.Bindings) {
			found++
			m.cs.Add(&conflict.Instantiation{Rule: ce.Rule, TupleIDs: ids, Tuples: tuples, Bindings: b})
		})
		if m.tr.Enabled() {
			m.tr.Emit(trace.Event{
				Kind: trace.KindJoinEval, At: t0, Dur: m.tr.Now() - t0,
				Rule: ce.Rule.Name, CE: ce.Index, Class: class, Count: found,
			})
		}
	}
}
