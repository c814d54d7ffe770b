package core

import (
	"time"

	"prodsys/internal/conflict"
	"prodsys/internal/metrics"
	"prodsys/internal/relation"
	"prodsys/internal/rules"
	"prodsys/internal/trace"
)

// This file is the matching-pattern algorithm's set-oriented path: one
// batch of same-class WM changes is maintained with one COND-relation
// search per (condition element, tuple) pair, propagation grouped so every
// target COND relation is locked (and, under simulated I/O, written)
// once per batch, and — for deletions — one re-derivation per negatively
// dependent rule per batch. This is the set-at-a-time processing the
// paper claims as the DBMS advantage (§4.2, §5.1), applied to the
// maintenance process itself. The maintenance helpers (maintain, upsert,
// withdraw) serve the tuple path too.

// contribution is one projected matching pattern awaiting upsert into a
// target condition element's COND relation: the values e.pos selects from
// tuple t, supported by t.
type contribution struct {
	e  *edge
	id relation.TupleID
	t  relation.Tuple
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
	m.stores[class].live += len(entries)
	for _, ce := range m.set.ByClass[class] {
		if ce.Negated {
			m.stats.Inc(metrics.PatternSearches)
			m.retractBlocked(ce, entries)
		}
	}
	m.maintain(m.stores[class].conds, entries)
	m.detectInserts(class, entries)
	return nil
}

// maintain is the maintenance process (§4.2.2): every entry matching one
// of the source condition elements projects its bindings onto that
// element's targets. Contributions are grouped per target so each COND
// relation is touched once per call; under core-parallel the groups are
// upserted concurrently.
func (m *Matcher) maintain(srcs []*condIndex, entries []relation.DeltaEntry) {
	type group struct {
		target   *condIndex
		contribs []contribution
	}
	var groups []group
	var gbuf [8]int
	for _, src := range srcs {
		if len(src.targets) == 0 {
			continue
		}
		// gidx[i] caches the group of src.targets[i], found on first use.
		gidx := gbuf[:0]
		for range src.targets {
			gidx = append(gidx, -1)
		}
		for _, e := range entries {
			if !src.alone(e.Tuple) {
				continue
			}
			for i := range src.targets {
				ed := &src.targets[i]
				if gidx[i] < 0 {
					g := 0
					for g < len(groups) && groups[g].target != ed.sh.ci {
						g++
					}
					if g == len(groups) {
						groups = append(groups, group{target: ed.sh.ci})
					}
					gidx[i] = g
				}
				g := &groups[gidx[i]]
				g.contribs = append(g.contribs, contribution{e: ed, id: e.ID, t: e.Tuple})
			}
		}
	}
	if m.parallel && len(groups) > 1 {
		m.stats.Inc(metrics.ParallelBatches)
		forwardPanics(len(groups), func(i int) {
			m.upsert(groups[i].target, groups[i].contribs)
		})
		return
	}
	for _, g := range groups {
		m.upsert(g.target, g.contribs)
	}
}

// upsert applies a group of contributions to one COND relation under a
// single store lock (and, when simulated I/O is configured, a single page
// write): each finds or creates its pattern through the shape index and
// records its tuple as a supporter. The new support links then go into
// the reverse index under a single lock.
func (m *Matcher) upsert(target *condIndex, contribs []contribution) {
	m.stats.Add(metrics.MaintenanceOps, int64(len(contribs)))
	t0 := m.tr.Now()
	if m.tr.Enabled() {
		defer func() {
			m.tr.Emit(trace.Event{
				Kind: trace.KindPatternPropagate, At: t0, Dur: m.tr.Now() - t0,
				Rule: target.ce.Rule.Name, CE: target.ce.Index, Class: target.ce.Class, Count: int64(len(contribs)),
			})
		}()
	}
	if m.ioDelay > 0 {
		time.Sleep(m.ioDelay) // one simulated COND-relation page write
	}
	type newLink struct {
		wk   wmeKey
		slot patSlot
	}
	var links []newLink
	target.st.mu.Lock()
	for _, c := range contribs {
		p := c.e.sh.find(c.t, c.e.pos)
		if p == nil {
			p = c.e.sh.add(c.t, c.e.pos)
			m.stats.Inc(metrics.PatternsStored)
			m.stats.Inc(metrics.CondTuplesStored)
		}
		if p.addSupport(c.e.src, c.id) {
			links = append(links, newLink{wk: wmeKey{class: c.e.srcClass, id: c.id}, slot: patSlot{p: p, ceIdx: c.e.src}})
		}
	}
	target.st.mu.Unlock()
	if len(links) == 0 {
		return
	}
	m.refMu.Lock()
	for _, l := range links {
		m.byTuple[l.wk] = append(m.byTuple[l.wk], l.slot)
	}
	m.refMu.Unlock()
}

// detectInserts is the detection half of an insert batch: one search of
// each condition element's COND relation per batch tuple, then the
// conflict-set update for every candidate that fired.
func (m *Matcher) detectInserts(class string, entries []relation.DeltaEntry) {
	for _, ci := range m.stores[class].conds {
		m.stats.Inc(metrics.PatternSearches)
		type fired struct {
			e        relation.DeltaEntry
			partners []relation.TupleID
		}
		var fires []fired
		var checked int64
		t0 := m.tr.Now()
		for _, e := range entries {
			d := m.detect(ci, e.Tuple)
			checked += d.checked
			if d.fire {
				fires = append(fires, fired{e: e, partners: d.partners})
			}
		}
		m.stats.Add(metrics.CandidateChecks, checked)
		if m.tr.Enabled() {
			m.tr.Emit(trace.Event{
				Kind: trace.KindCondScan, At: t0, Dur: m.tr.Now() - t0,
				Rule: ci.ce.Rule.Name, CE: ci.ce.Index, Class: class, Count: checked,
			})
		}
		for _, f := range fires {
			m.emit(ci, f.e.ID, f.e.Tuple, f.partners)
		}
	}
}

// DeleteBatch implements match.BatchMatcher: every batch tuple's support
// withdrawals are grouped per COND relation, instantiations are
// retracted per tuple, and rules negatively dependent on the class are
// re-derived once for the whole batch instead of once per deleted tuple.
func (m *Matcher) DeleteBatch(class string, entries []relation.DeltaEntry) error {
	m.stores[class].live -= len(entries)
	m.withdraw(class, entries)
	m.detectDeletes(class, entries)
	return nil
}

// withdraw is the maintenance half of a delete: the support slots fed by
// the deleted tuples are withdrawn (the counter decrement of §4.2.2),
// grouped per COND relation — one lock acquisition per touched relation.
// A pattern left without supporters dies.
func (m *Matcher) withdraw(class string, entries []relation.DeltaEntry) {
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
		st := sr.slot.p.sh.ci.st
		if _, seen := byStore[st]; !seen {
			storeOrder = append(storeOrder, st)
		}
		byStore[st] = append(byStore[st], sr)
	}
	for _, st := range storeOrder {
		st.mu.Lock()
		for _, sr := range byStore[st] {
			p := sr.slot.p
			p.dropSupport(sr.slot.ceIdx, sr.id)
			if len(p.support) == 0 && p.sh.remove(p) {
				m.stats.Inc(metrics.PatternsDeleted)
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
