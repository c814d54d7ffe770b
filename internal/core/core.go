// Package core implements the paper's contribution: the matching-pattern
// algorithm of §4.2.
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
// OPS5-equality class of the bound values (index.go). Detection is a
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
// verification join and no false drops (DESIGN.md §2.1).
//
// Negated condition elements are enforced at verification time (the NOT
// EXISTS check of §5.2) rather than through inverted marks.
//
// The matcher holds no locks of its own. Like every match.Matcher it is
// called only under the engine's maintenance mutex (or, for Load's
// checkpoint restore, before the system is shared), so each entry point —
// maintenance, detection, the audit's dump — runs alone. §4.2.3's
// parallel propagation to the related COND relations is not implemented:
// measured on two cores it ran at 0.71–0.90× of the serial path
// (EXPERIMENTS.md E5).
package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"prodsys/internal/conflict"
	"prodsys/internal/joiner"
	"prodsys/internal/metrics"
	"prodsys/internal/relation"
	"prodsys/internal/rules"
	"prodsys/internal/trace"
	"prodsys/internal/value"
)

// wmeKey identifies a working-memory tuple.
type wmeKey struct {
	class string
	id    relation.TupleID
}

// patSlot locates one support entry of a pattern.
type patSlot struct {
	p     *pattern
	ceIdx int
}

// Matcher is the matching-pattern matcher.
type Matcher struct {
	set    *rules.Set
	db     *relation.DB
	cs     *conflict.Set
	stats  *metrics.Set
	stores map[string]*store
	cond   map[*rules.CE]*condIndex
	tr     *trace.Tracer
	pl     *joiner.Planner

	// byTuple is the reverse index from a WM tuple to the pattern support
	// slots it feeds.
	byTuple map[wmeKey][]patSlot

	// b and ins are exact emission's reused slot vector and instantiation
	// buffer; groups and fires are maintain's and detectInserts' — every
	// call runs under the engine's maintenance lock.
	b      rules.Bindings
	ins    []*conflict.Instantiation
	groups []group
	fires  []fired
}

// New builds the matcher over the engine's WM catalog: one COND index per
// positive condition element, seeded with its original COND tuple, and
// the shapes and maintenance routes between them. stats may be nil.
func New(set *rules.Set, db *relation.DB, cs *conflict.Set, stats *metrics.Set) *Matcher {
	m := &Matcher{
		set:     set,
		db:      db,
		cs:      cs,
		stats:   stats,
		stores:  make(map[string]*store),
		cond:    make(map[*rules.CE]*condIndex),
		byTuple: make(map[wmeKey][]patSlot),
	}
	for name := range set.Classes {
		m.stores[name] = &store{}
	}
	for _, r := range set.Rules {
		for _, ce := range r.CEs {
			if ce.Negated {
				continue
			}
			st := m.stores[ce.Class]
			ci := newCondIndex(ce)
			st.conds = append(st.conds, ci)
			m.cond[ce] = ci
			m.stats.Inc(metrics.CondTuplesStored)
		}
	}
	for _, r := range set.Rules {
		for _, ce := range r.CEs {
			if ce.Negated {
				continue
			}
			ci := m.cond[ce]
			ci.contributors = positiveSharers(r, ce.Index)
			ci.partner = exactPartner(r, ci.contributors)
			// Contributor i projects the variables it equality-binds that
			// this element references: one shape per distinct set.
			for _, i := range ci.contributors {
				src := r.CEs[i]
				var vars []string
				for _, v := range src.ExtractableVars() {
					if indexOf(ce.Vars(), v) >= 0 {
						vars = append(vars, v)
					}
				}
				sort.Strings(vars)
				e := edge{src: i, srcClass: src.Class, sh: ci.shapeFor(vars)}
				for _, v := range vars {
					e.pos = append(e.pos, eqPos(src, v))
				}
				m.cond[src].targets = append(m.cond[src].targets, e)
			}
			if ci.partner >= 0 {
				v := ci.shapes[0].vars[0]
				ci.ownPos, ci.partnerPos = eqPos(ce, v), eqPos(r.CEs[ci.partner], v)
			}
		}
	}
	return m
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

// SetTracer implements match.Matcher: condition scans, verification
// joins and pattern propagations are emitted as trace events.
func (m *Matcher) SetTracer(tr *trace.Tracer) { m.tr = tr }

// SetPlanner implements match.Matcher: verification joins and negated
// re-derivations run under the planner's cost-based join order.
func (m *Matcher) SetPlanner(p *joiner.Planner) { m.pl = p }

// Name implements match.Matcher.
func (m *Matcher) Name() string { return "core" }

// ConflictSet implements match.Matcher.
func (m *Matcher) ConflictSet() *conflict.Set { return m.cs }

// emitExact adds the instantiations pairing t with each partner tuple its
// matched patterns carry (buildExact).
func (m *Matcher) emitExact(ci *condIndex, id relation.TupleID, t relation.Tuple, partners []relation.TupleID) {
	t0 := m.tr.Now()
	ins := m.buildExact(ci, id, t, partners)
	m.cs.AddAll(ins)
	clear(ins)
	m.ins = ins[:0]
	ce := ci.ce
	if m.tr.Enabled() {
		m.tr.Emit(trace.Event{
			Kind: trace.KindJoinEval, At: t0, Dur: m.tr.Now() - t0,
			Rule: ce.Rule.Name, CE: ce.Index, Class: ce.Class, ID: uint64(id), Count: int64(len(ins)),
		})
	}
	if len(ins) == 0 {
		m.stats.Inc(metrics.FalseDrops)
	}
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
func (m *Matcher) buildExact(ci *condIndex, id relation.TupleID, t relation.Tuple, partners []relation.TupleID) []*conflict.Instantiation {
	ce := ci.ce
	r := ce.Rule
	other := r.CEs[ci.partner]
	ins := m.ins[:0]
	rel, ok := m.db.Get(other.Class)
	if !ok {
		return ins
	}
	if rel.Len() != m.stores[other.Class].live {
		m.stats.Inc(metrics.JoinsComputed)
		partners = rel.SelectEq(ci.partnerPos, t[ci.ownPos])
	}
	m.b = r.Clear(m.b)
	tu, ok := ce.MatchWith(t, m.b)
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
		pu, ok := other.MatchWith(u, m.b)
		if !ok {
			continue
		}
		other.Unbind(m.b, pu)
		ids[other.Index], tuples[other.Index] = pid, u
		ins = append(ins, conflict.NewInstantiation(r, ids[:], tuples[:]))
	}
	ce.Unbind(m.b, tu)
	return ins
}

// verifyAndEmit runs the selection-driven join seeded by the new tuple
// and adds every real instantiation; a candidate with no completions is a
// false drop (§2.3: "the penalty to be paid is just in processing time").
// The pin also seeds the join with the new tuple's own bindings, so
// condition elements scheduled before the pinned one probe their join
// indexes instead of scanning.
func (m *Matcher) verifyAndEmit(ce *rules.CE, id relation.TupleID, t relation.Tuple) {
	var found int64
	t0 := m.tr.Now()
	m.pl.Enumerate(m.db, ce.Rule, &joiner.Pin{CE: ce.Index, ID: id, Tuple: t}, m.stats, func(ids []relation.TupleID, tuples []relation.Tuple, _ rules.Bindings) {
		found++
		m.cs.Add(conflict.NewInstantiation(ce.Rule, ids, tuples))
	})
	if m.tr.Enabled() {
		m.tr.Emit(trace.Event{
			Kind: trace.KindJoinEval, At: t0, Dur: m.tr.Now() - t0,
			Rule: ce.Rule.Name, CE: ce.Index, Class: ce.Class, ID: uint64(id), Count: found,
		})
	}
	if found == 0 {
		m.stats.Inc(metrics.FalseDrops)
	}
}

// PatternCount reports the number of stored matching patterns (original
// COND tuples excluded) — the space cost of §4.2.3.
func (m *Matcher) PatternCount() int {
	n := 0
	for _, st := range m.stores {
		for _, ci := range st.conds {
			for _, sh := range ci.shapes {
				n += sh.n
			}
		}
	}
	return n
}

// DumpDerived implements match.Matcher: one line per matching pattern,
// naming its condition element, its bound values and, per contributing
// condition element, the supporting tuple IDs (the Mark counters of
// §4.2.2 as exact sets). The original COND tuples are the rule set's
// and are not listed.
func (m *Matcher) DumpDerived(only map[string]bool, emit func(rule, line string)) {
	var b strings.Builder
	var sup []support
	for _, st := range m.stores {
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

// DumpCond renders one class's COND relation, mirroring the tables of
// Example 5 in the paper; used by tests and for debugging.
func (m *Matcher) DumpCond(class string) []string {
	st := m.stores[class]
	if st == nil {
		return nil
	}
	var out []string
	for _, ci := range st.conds {
		out = append(out, fmt.Sprintf("%s CEN=%d {} marks=[] (original)", ci.ce.Rule.Name, ci.ce.CEN()))
		for _, sh := range ci.shapes {
			sh.each(func(p *pattern) {
				marks := make([]string, 0, len(p.support))
				for _, s := range p.support {
					marks = append(marks, fmt.Sprintf("%s:%d×%d", ci.ce.Rule.CEs[s.src].Class, s.src+1, len(s.ids)))
				}
				sort.Strings(marks)
				var b strings.Builder
				p.writeBindings(&b)
				out = append(out, fmt.Sprintf("%s CEN=%d {%s} marks=%v", ci.ce.Rule.Name, ci.ce.CEN(), b.String(), marks))
			})
		}
	}
	sort.Strings(out)
	return out
}
