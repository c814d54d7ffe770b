package recheck

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"prodsys/internal/conflict"
	"prodsys/internal/metrics"
	"prodsys/internal/relation"
	"prodsys/internal/rules"
	"prodsys/internal/trace"
	"prodsys/internal/value"
)

// cond is the paper's contribution: the matching-pattern algorithm of
// §4.2, as the search of this package's pipeline.
//
// Each working-memory class has a COND relation whose tuples are the
// condition elements defined on that class plus matching patterns —
// partially instantiated copies created as related classes contribute
// bindings through shared variables. A pattern carries, per Related
// Condition Element (RCE), the set of working-memory tuples supporting it
// (the paper's Mark bits, generalized to counters for correct deletion —
// §4.2.2; we keep the supporting tuple IDs so deletion is exact, the
// counter being the set's cardinality).
//
// Each condition element's COND relation is one persistent index keyed by
// pattern shape — the sorted set of variables a pattern binds, fixed per
// contributing condition element — and, within a shape, by the
// OPS5-equality class of the bound values (condindex.go). Detection is a
// single search of one COND relation: a newly inserted tuple probes one
// bucket per shape it keys (scanning only the original COND tuple and the
// shapes reachable solely through inequalities), and the rule becomes a
// firing candidate when the union of marks across the patterns it matches
// covers every related condition element that shares variables with this
// one. Every change arrives as a batch (one tuple is a one-entry batch):
// maintenance first propagates the batch's bindings into the COND
// relations of the related classes, then each batch tuple is detected
// against that post-batch state — §4.2.3 updates the conflict set before
// maintaining, which only a tuple-at-a-time path could do.
//
// Where the paper's Example 5 also builds multiply-marked patterns by
// unifying existing patterns with each new contribution ((4,7,b) with
// marks 11), this implementation stores only singly-sourced patterns
// (the 10/01 rows) and takes the mark union at detection time. The
// multiply-marked rows are precisely the redundancy §4.2.3 says "must be
// compacted"; left unchecked they grow with the product of partial join
// results. The compaction trades a few more false drops — which the paper
// tolerates (§2.3) and which the verification join filters — for linear
// COND-relation growth. For an exact rule — two positive condition
// elements sharing a variable, each testing only variables it
// equality-binds itself — the matched pattern's marks name precisely the
// partner tuples, so detection emits the instantiations from them with no
// verification join and no false drops (DESIGN.md §2.1). Every other
// candidate goes to Matcher.verify, which §5.1 asks for anyway: "these
// tuples must be selected before executing the RHS actions".
//
// Negated condition elements are enforced by the pipeline: an inserted
// blocker retracts what it blocks (verify), and a deletion re-derives the
// negatively dependent rules (rederive) — the NOT EXISTS check of §5.2
// rather than inverted marks.
//
// §4.2.3's parallel propagation to the related COND relations is not
// implemented: measured on two cores it ran at 0.71–0.90× of the serial
// path (EXPERIMENTS.md E5).
type cond struct {
	stores map[string]*store
	ces    map[*rules.CE]*condIndex

	// byTuple is the reverse index from a WM tuple to the pattern support
	// slots it feeds.
	byTuple map[tupleKey][]patSlot

	// b is exact emission's reused slot vector; groups and fires are
	// maintain's and detectInserts' buffers.
	b      rules.Bindings
	groups []group
	fires  []fired
}

// patSlot locates one support entry of a pattern.
type patSlot struct {
	p     *pattern
	ceIdx int
}

// NewCore builds the matching-pattern matcher over the engine's WM
// catalog: one COND index per positive condition element, seeded with its
// original COND tuple, and the shapes and maintenance routes between
// them. stats may be nil.
func NewCore(set *rules.Set, db *relation.DB, cs *conflict.Set, stats *metrics.Set) *Matcher {
	c := &cond{
		stores:  make(map[string]*store),
		ces:     make(map[*rules.CE]*condIndex),
		byTuple: make(map[tupleKey][]patSlot),
	}
	for name := range set.Classes {
		c.stores[name] = &store{}
	}
	for _, r := range set.Rules {
		for _, ce := range r.CEs {
			if ce.Negated {
				continue
			}
			st := c.stores[ce.Class]
			ci := newCondIndex(ce)
			st.conds = append(st.conds, ci)
			c.ces[ce] = ci
			stats.Inc(metrics.CondTuplesStored)
		}
	}
	for _, r := range set.Rules {
		for _, ce := range r.CEs {
			if ce.Negated {
				continue
			}
			ci := c.ces[ce]
			ci.contributors = positiveSharers(r, ce.Index)
			ci.partner = exactPartner(r, ci.contributors)
			// Contributor i projects the variables it equality-binds that
			// this element references: one shape per distinct set.
			for _, i := range ci.contributors {
				src := r.CEs[i]
				var vars []string
				for _, v := range src.ExtractableVars() {
					if slices.Contains(ce.Vars(), v) {
						vars = append(vars, v)
					}
				}
				sort.Strings(vars)
				e := edge{src: i, srcClass: src.Class, sh: ci.shapeFor(vars)}
				for _, v := range vars {
					e.pos = append(e.pos, eqPos(src, v))
				}
				c.ces[src].targets = append(c.ces[src].targets, e)
			}
			if ci.partner >= 0 {
				v := ci.shapes[0].vars[0]
				ci.ownPos, ci.partnerPos = eqPos(ce, v), eqPos(r.CEs[ci.partner], v)
			}
		}
	}
	return &Matcher{name: "core", set: set, db: db, cs: cs, stats: stats, f: c}
}

// positiveSharers returns the indices of the positive condition elements
// of r (other than i) that can contribute a matching pattern to CE i:
// they must be able to extract (equality-bind) at least one variable that
// CE i references. A condition element that only constrains a variable
// through an inequality can never deliver a mark, so requiring one would
// suppress legitimate firings.
func positiveSharers(r *rules.Rule, i int) []int {
	iVars := map[string]bool{}
	for _, v := range r.CEs[i].Vars() {
		iVars[v] = true
	}
	var out []int
	for j, other := range r.CEs {
		if j == i || other.Negated {
			continue
		}
		for _, v := range other.ExtractableVars() {
			if iVars[v] {
				out = append(out, j)
				break
			}
		}
	}
	return out
}

// exactPartner returns the index of the other condition element when r is
// exact, -1 otherwise. r is exact when it has exactly two condition
// elements, both positive, that share a variable (each contributes to the
// other), and every inequality either one makes tests a variable it has
// already equality-bound itself. Then a tuple matching a pattern joins
// every tuple supporting it, and every partner it joins supports the one
// pattern it keys: the marks are exact (Example 5's multiply-marked
// precision, recovered without storing those rows), and detection emits
// the instantiations itself. A cross-element inequality (chain's
// `window`), a negated element or a third element disqualifies the rule,
// which keeps the verification join.
func exactPartner(r *rules.Rule, contributors []int) int {
	if len(r.CEs) != 2 || len(contributors) != 1 {
		return -1
	}
	for _, ce := range r.CEs {
		if ce.Negated {
			return -1
		}
		for i, vt := range ce.VarTests {
			if vt.Op == value.OpEq {
				continue
			}
			bound := false
			for _, w := range ce.VarTests[:i] {
				bound = bound || (w.Var == vt.Var && w.Op == value.OpEq)
			}
			if !bound {
				return -1
			}
		}
	}
	return contributors[0]
}

// contribution is one projected matching pattern awaiting upsert into a
// target condition element's COND relation: the values e.pos selects from
// tuple t, supported by t.
type contribution struct {
	e  *edge
	id relation.TupleID
	t  relation.Tuple
}

// group is the contributions one maintain call routes to one target
// COND relation.
type group struct {
	target   *condIndex
	contribs []contribution
}

// fired is one detectInserts candidate: the batch entry at index i, whose
// marks cover its condition element, with the partners they name.
type fired struct {
	i        int
	partners []relation.TupleID
}

func (*cond) derived(*rules.Rule, []relation.TupleID) {}

// inserted is the insert half of the maintenance path: the negated
// condition elements on the class retract what the entries block, the
// batch's bindings propagate into the related COND relations, and each
// entry is then detected against the post-batch state. Where §4.2.3
// updates the conflict set before maintaining, a batch runs its whole
// maintenance first and detects afterwards, so a tuple whose marks are
// completed by another member of the same batch is still detected; the
// verification join filters the extra candidates exactly as it filters
// false drops. A class no rule declares has nothing to maintain.
func (c *cond) inserted(m *Matcher, class string, entries []relation.DeltaEntry) {
	st := c.stores[class]
	if st == nil {
		return
	}
	st.live += len(entries)
	for _, ce := range m.set.ByClass[class] {
		if ce.Negated {
			m.stats.Inc(metrics.PatternSearches)
			m.verify(ce, entries)
		}
	}
	c.maintain(m, st.conds, entries)
	c.detectInserts(m, class, entries)
}

// maintain is the maintenance process (§4.2.2): every entry matching one
// of the source condition elements projects its bindings onto that
// element's targets. Contributions are grouped per target so each COND
// relation is touched once per call; the groups live in a reused buffer.
func (c *cond) maintain(m *Matcher, srcs []*condIndex, entries []relation.DeltaEntry) {
	groups := c.groups[:0]
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
		c.upsert(m, groups[i].target, groups[i].contribs)
		clear(groups[i].contribs)
		groups[i].contribs = groups[i].contribs[:0]
	}
	c.groups = groups
}

// upsert applies a group of contributions to one COND relation: each
// finds or creates its pattern through the shape index, records its tuple
// as a supporter and, when the support is new, links it into the reverse
// index.
func (c *cond) upsert(m *Matcher, target *condIndex, contribs []contribution) {
	m.stats.Add(metrics.MaintenanceOps, int64(len(contribs)))
	t0 := m.tr.Now()
	for _, ct := range contribs {
		p := ct.e.sh.find(ct.t, ct.e.pos)
		if p == nil {
			p = ct.e.sh.add(ct.t, ct.e.pos)
			m.stats.Inc(metrics.PatternsStored)
			m.stats.Inc(metrics.CondTuplesStored)
		}
		if p.addSupport(ct.e.src, ct.id) {
			k := tupleKey{class: ct.e.srcClass, id: ct.id}
			c.byTuple[k] = append(c.byTuple[k], patSlot{p: p, ceIdx: ct.e.src})
		}
	}
	ce := target.ce
	m.emit(t0, trace.Event{Kind: trace.KindPatternPropagate, Rule: ce.Rule.Name, CE: ce.Index, Class: ce.Class, Count: int64(len(contribs))})
}

// detectInserts is the detection half of an insert batch: one search of
// each condition element's COND relation per batch tuple, then the
// conflict-set update for every candidate that fired — from the marks
// when the rule is exact, else by a verification join pinned to the one
// entry, each in entry order, so the agenda receives them as detected.
func (c *cond) detectInserts(m *Matcher, class string, entries []relation.DeltaEntry) {
	for _, ci := range c.stores[class].conds {
		m.stats.Inc(metrics.PatternSearches)
		fires := c.fires[:0]
		var checked int64
		t0 := m.tr.Now()
		for i, e := range entries {
			d := ci.detect(e.Tuple)
			checked += d.checked
			if d.fire {
				fires = append(fires, fired{i: i, partners: d.partners})
			}
		}
		m.stats.Add(metrics.CandidateChecks, checked)
		m.emit(t0, trace.Event{Kind: trace.KindCondScan, Rule: ci.ce.Rule.Name, CE: ci.ce.Index, Class: class, Count: checked})
		for _, f := range fires {
			var found int64
			if ci.partner >= 0 {
				found = c.emitExact(m, ci, entries[f.i], f.partners)
			} else {
				found = m.verify(ci.ce, entries[f.i:f.i+1])
			}
			if found == 0 {
				m.stats.Inc(metrics.FalseDrops)
			}
		}
		clear(fires)
		c.fires = fires[:0]
	}
}

// emitExact adds the instantiations pairing e with each partner tuple
// its matched patterns carry (buildExact) and returns how many.
func (c *cond) emitExact(m *Matcher, ci *condIndex, e relation.DeltaEntry, partners []relation.TupleID) int64 {
	t0 := m.tr.Now()
	m.ins = c.buildExact(m, ci, e.ID, e.Tuple, partners)
	n := m.addDerived()
	ce := ci.ce
	m.emit(t0, trace.Event{Kind: trace.KindJoinEval, Rule: ce.Rule.Name, CE: ce.Index, Class: ce.Class, ID: uint64(e.ID), Count: n})
	return n
}

// buildExact pairs t with each partner tuple its matched patterns carry,
// ascending by tuple ID — the order the verification join's index-eq and
// scan access paths would produce — into the reused buffer m.ins. Each
// pair is re-checked with MatchWith, so an emitted instantiation always
// satisfies the LHS; exactness is what makes the list complete. A batch
// is maintained before it is detected, so in a self-join t's own
// projection is already among the marks. Each instantiation is one
// allocation, its bindings read from its tuples.
//
// The marks name every partner the matcher has maintained. When WM holds
// partner tuples it has not been handed yet — a later class of the same
// batch, or a checkpoint restore in progress — the partner relation is
// probed on the join value instead, so each instantiation still arrives
// exactly when the verification join would add it.
func (c *cond) buildExact(m *Matcher, ci *condIndex, id relation.TupleID, t relation.Tuple, partners []relation.TupleID) []*conflict.Instantiation {
	ce := ci.ce
	r := ce.Rule
	other := r.CEs[ci.partner]
	ins := m.ins[:0]
	rel, ok := m.db.Get(other.Class)
	if !ok {
		return ins
	}
	if rel.Len() != c.stores[other.Class].live {
		m.stats.Inc(metrics.JoinsComputed)
		partners = rel.SelectEq(ci.partnerPos, t[ci.ownPos])
	}
	c.b = r.Clear(c.b)
	tu, ok := ce.MatchWith(t, c.b)
	if !ok {
		return ins
	}
	var ids [2]relation.TupleID
	var tuples [2]relation.Tuple
	ids[ce.Index], tuples[ce.Index] = id, t
	for _, pid := range partners {
		u, live := rel.Get(pid)
		if !live {
			continue
		}
		pu, ok := other.MatchWith(u, c.b)
		if !ok {
			continue
		}
		other.Unbind(c.b, pu)
		ids[other.Index], tuples[other.Index] = pid, u
		ins = append(ins, conflict.NewInstantiation(r, ids[:], tuples[:]))
	}
	ce.Unbind(c.b, tu)
	return ins
}

// deleted withdraws the support the entries fed (the counter decrement
// of §4.2.2; a pattern left without supporters dies), then re-derives
// the rules negatively dependent on the class, once per batch.
func (c *cond) deleted(m *Matcher, class string, entries []relation.DeltaEntry) {
	st := c.stores[class]
	if st == nil {
		return
	}
	st.live -= len(entries)
	for _, e := range entries {
		k := tupleKey{class: class, id: e.ID}
		for _, s := range c.byTuple[k] {
			s.p.dropSupport(s.ceIdx, e.ID)
			if len(s.p.support) == 0 && s.p.sh.remove(s.p) {
				m.stats.Inc(metrics.PatternsDeleted)
			}
		}
		delete(c.byTuple, k)
	}
	m.rederiveNegated(class)
}

// dump lists one line per matching pattern, naming its condition
// element, its bound values and, per contributing condition element, the
// supporting tuple IDs (the Mark counters of §4.2.2 as exact sets). The
// original COND tuples are the rule set's and are not listed.
func (c *cond) dump(_ *Matcher, only map[string]bool, emit func(rule, line string)) {
	var b strings.Builder
	var sup []support
	for _, st := range c.stores {
		for _, ci := range st.conds {
			rule := ci.ce.Rule.Name
			if only != nil && !only[rule] {
				continue
			}
			for _, sh := range ci.shapes {
				sh.each(func(p *pattern) {
					b.Reset()
					fmt.Fprintf(&b, "ce%d {", ci.ce.Index)
					p.writeBindings(&b)
					b.WriteByte('}')
					sup = append(sup[:0], p.support...)
					slices.SortFunc(sup, func(x, y support) int { return x.src - y.src })
					for _, s := range sup {
						fmt.Fprintf(&b, " #%d%v", s.src, s.ids)
					}
					emit(rule, b.String())
				})
			}
		}
	}
}
