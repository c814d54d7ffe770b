package core

import (
	"prodsys/internal/conflict"
	"prodsys/internal/metrics"
	"prodsys/internal/relation"
	"prodsys/internal/rules"
	"prodsys/internal/trace"
)

// This file is the matching-pattern algorithm's maintenance path: one
// batch of same-class WM changes — a single tuple is a one-entry batch —
// is maintained with one COND-relation search per (condition element,
// tuple) pair, propagation grouped so every target COND relation is
// touched once per batch, and — for deletions — one re-derivation per
// negatively dependent rule per batch. This is the set-at-a-time
// processing the paper claims as the DBMS advantage (§4.2, §5.1),
// applied to the maintenance process itself.

// contribution is one projected matching pattern awaiting upsert into a
// target condition element's COND relation: the values e.pos selects from
// tuple t, supported by t.
type contribution struct {
	e  *edge
	id relation.TupleID
	t  relation.Tuple
}

// InsertBatch implements match.Matcher. Where §4.2.3 updates the
// conflict set before maintaining the COND relations, a batch runs its
// whole maintenance first and detects afterwards, so a tuple whose marks
// are completed by another member of the same batch is still detected.
// Detection over the post-batch COND state sees a superset of the marks
// any sequential ordering would, and the verification join filters the
// extra candidates exactly as it filters false drops. A class no rule
// declares (a view set's delta can carry one) has nothing to maintain.
func (m *Matcher) InsertBatch(class string, entries []relation.DeltaEntry) error {
	st := m.stores[class]
	if st == nil {
		return nil
	}
	st.live += len(entries)
	for _, ce := range m.set.ByClass[class] {
		if ce.Negated {
			m.stats.Inc(metrics.PatternSearches)
			m.cs.RemoveBlocked(ce, entries)
		}
	}
	m.maintain(st.conds, entries)
	m.detectInserts(class, entries)
	return nil
}

// group is the contributions one maintain call routes to one target
// COND relation.
type group struct {
	target   *condIndex
	contribs []contribution
}

// fired is one detectInserts candidate: a batch entry whose marks cover
// its condition element, with the partners they name.
type fired struct {
	e        relation.DeltaEntry
	partners []relation.TupleID
}

// maintain is the maintenance process (§4.2.2): every entry matching one
// of the source condition elements projects its bindings onto that
// element's targets. Contributions are grouped per target so each COND
// relation is touched once per call; the groups live in the matcher's
// reused buffer.
func (m *Matcher) maintain(srcs []*condIndex, entries []relation.DeltaEntry) {
	groups := m.groups[:0]
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
						if g < cap(groups) {
							groups = groups[:g+1]
							groups[g].target = ed.sh.ci
						} else {
							groups = append(groups, group{target: ed.sh.ci})
						}
					}
					gidx[i] = g
				}
				g := &groups[gidx[i]]
				g.contribs = append(g.contribs, contribution{e: ed, id: e.ID, t: e.Tuple})
			}
		}
	}
	for i := range groups {
		m.upsert(groups[i].target, groups[i].contribs)
		clear(groups[i].contribs)
		groups[i].contribs = groups[i].contribs[:0]
	}
	m.groups = groups
}

// upsert applies a group of contributions to one COND relation: each
// finds or creates its pattern through the shape index, records its tuple
// as a supporter and, when the support is new, links it into the reverse
// index.
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
	for _, c := range contribs {
		p := c.e.sh.find(c.t, c.e.pos)
		if p == nil {
			p = c.e.sh.add(c.t, c.e.pos)
			m.stats.Inc(metrics.PatternsStored)
			m.stats.Inc(metrics.CondTuplesStored)
		}
		if p.addSupport(c.e.src, c.id) {
			wk := wmeKey{class: c.e.srcClass, id: c.id}
			m.byTuple[wk] = append(m.byTuple[wk], patSlot{p: p, ceIdx: c.e.src})
		}
	}
}

// detectInserts is the detection half of an insert batch: one search of
// each condition element's COND relation per batch tuple, then the
// conflict-set update for every candidate that fired.
func (m *Matcher) detectInserts(class string, entries []relation.DeltaEntry) {
	for _, ci := range m.stores[class].conds {
		m.stats.Inc(metrics.PatternSearches)
		fires := m.fires[:0]
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
		for _, f := range fires { // from the marks when exact, else by joining
			if ci.partner >= 0 {
				m.emitExact(ci, f.e.ID, f.e.Tuple, f.partners)
			} else {
				m.verifyAndEmit(ci.ce, f.e.ID, f.e.Tuple)
			}
		}
		clear(fires)
		m.fires = fires[:0]
	}
}

// DeleteBatch implements match.Matcher: every batch tuple's support is
// withdrawn, instantiations are retracted per tuple, and rules negatively
// dependent on the class are re-derived once for the whole batch instead
// of once per deleted tuple.
func (m *Matcher) DeleteBatch(class string, entries []relation.DeltaEntry) error {
	st := m.stores[class]
	if st == nil {
		return nil
	}
	st.live -= len(entries)
	m.withdraw(class, entries)
	m.detectDeletes(class, entries)
	return nil
}

// withdraw is the maintenance half of a delete: the support slots fed by
// the deleted tuples are withdrawn (the counter decrement of §4.2.2). A
// pattern left without supporters dies.
func (m *Matcher) withdraw(class string, entries []relation.DeltaEntry) {
	for _, e := range entries {
		wk := wmeKey{class: class, id: e.ID}
		for _, s := range m.byTuple[wk] {
			s.p.dropSupport(s.ceIdx, e.ID)
			if len(s.p.support) == 0 && s.p.sh.remove(s.p) {
				m.stats.Inc(metrics.PatternsDeleted)
			}
		}
		delete(m.byTuple, wk)
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
		m.pl.Enumerate(m.db, ce.Rule, nil, m.stats, func(ids []relation.TupleID, tuples []relation.Tuple, _ rules.Bindings) {
			found++
			m.cs.Add(conflict.NewInstantiation(ce.Rule, ids, tuples))
		})
		if m.tr.Enabled() {
			m.tr.Emit(trace.Event{
				Kind: trace.KindJoinEval, At: t0, Dur: m.tr.Now() - t0,
				Rule: ce.Rule.Name, CE: ce.Index, Class: class, Count: found,
			})
		}
	}
}
