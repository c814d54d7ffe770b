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
// one. No hierarchical propagation precedes the conflict-set update
// (§4.2.3: "the conflict set is updated first, and then the maintenance
// process follows"). Maintenance then propagates the new bindings into
// the COND relations of the related classes, optionally in parallel (the
// algorithm is "fully parallelizable").
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
package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

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
	set      *rules.Set
	db       *relation.DB
	cs       *conflict.Set
	stats    *metrics.Set
	stores   map[string]*store
	cond     map[*rules.CE]*condIndex
	parallel bool
	ioDelay  time.Duration
	tr       *trace.Tracer
	pl       *joiner.Planner

	// refMu guards byTuple, the reverse index from a WM tuple to the
	// pattern support slots it feeds.
	refMu   sync.Mutex
	byTuple map[wmeKey][]patSlot
}

// Option configures the matcher.
type Option func(*Matcher)

// WithParallelPropagation propagates matching patterns to the COND
// relations of related classes concurrently, one goroutine per target
// class (§4.2.3: "propagation of changes can be performed in parallel to
// all the COND relations").
func WithParallelPropagation() Option {
	return func(m *Matcher) { m.parallel = true }
}

// WithSimulatedIO injects a per-propagation-target delay, modelling COND
// relations on secondary storage (the paper's setting: "assuming
// secondary storage is used to store the WM elements", §3.2). The delay
// makes the benefit of parallel propagation measurable on hardware where
// the in-memory pattern update is otherwise instantaneous.
func WithSimulatedIO(d time.Duration) Option {
	return func(m *Matcher) { m.ioDelay = d }
}

// New builds the matcher over the engine's WM catalog: one COND index per
// positive condition element, seeded with its original COND tuple, and
// the shapes and maintenance routes between them. stats may be nil.
func New(set *rules.Set, db *relation.DB, cs *conflict.Set, stats *metrics.Set, opts ...Option) *Matcher {
	m := &Matcher{
		set:     set,
		db:      db,
		cs:      cs,
		stats:   stats,
		stores:  make(map[string]*store),
		cond:    make(map[*rules.CE]*condIndex),
		byTuple: make(map[wmeKey][]patSlot),
	}
	for _, o := range opts {
		o(m)
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
			ci := newCondIndex(ce, st)
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

// SetTracer implements match.Traceable: condition scans, verification
// joins and pattern propagations are emitted as trace events.
func (m *Matcher) SetTracer(tr *trace.Tracer) { m.tr = tr }

// SetPlanner implements match.Planned: verification joins and negated
// re-derivations run under the planner's cost-based join order.
func (m *Matcher) SetPlanner(p *joiner.Planner) { m.pl = p }

// Name implements match.Matcher.
func (m *Matcher) Name() string {
	if m.parallel {
		return "core-parallel"
	}
	return "core"
}

// ConflictSet implements match.Matcher.
func (m *Matcher) ConflictSet() *conflict.Set { return m.cs }

// Insert implements match.Matcher. The WM relation already contains the
// tuple.
func (m *Matcher) Insert(class string, id relation.TupleID, t relation.Tuple) error {
	one := []relation.DeltaEntry{{ID: id, Tuple: t}}
	st := m.stores[class]
	st.live++
	conds := st.conds
	for _, ce := range m.set.ByClass[class] {
		m.stats.Inc(metrics.PatternSearches)
		if ce.Negated {
			m.retractBlocked(ce, one)
			continue
		}
		src := conds[:1]
		ci := src[0]
		conds = conds[1:]
		t0 := m.tr.Now()
		d := m.detect(ci, t)
		m.stats.Add(metrics.CandidateChecks, d.checked)
		if m.tr.Enabled() {
			m.tr.Emit(trace.Event{
				Kind: trace.KindCondScan, At: t0, Dur: m.tr.Now() - t0,
				Rule: ce.Rule.Name, CE: ce.Index, Class: class, ID: uint64(id), Count: d.checked,
			})
		}
		// Conflict set first (§4.2.3), maintenance second.
		if d.fire {
			m.emit(ci, id, t, d.partners)
		}
		m.maintain(src, one)
	}
	return nil
}

// emit adds the instantiations a firing candidate completes: straight
// from the marks for an exact rule, through the verification join
// otherwise.
func (m *Matcher) emit(ci *condIndex, id relation.TupleID, t relation.Tuple, partners []relation.TupleID) {
	if ci.partner >= 0 {
		m.emitExact(ci, id, t, partners)
	} else {
		m.verifyAndEmit(ci.ce, id, t)
	}
}

// exactInst holds one exact instantiation and its tuple arrays in a
// single allocation.
type exactInst struct {
	in     conflict.Instantiation
	ids    [2]relation.TupleID
	tuples [2]relation.Tuple
}

// emitExact pairs t with each partner tuple its matched patterns carry,
// ascending by tuple ID — the order the verification join's index-eq and
// scan access paths would produce. Each pair is re-checked with MatchWith
// (which also builds the bindings), so an emitted instantiation always
// satisfies the LHS; exactness is what makes the list complete. In a
// self-join t itself is a candidate partner even before its own
// projection is maintained, as it is for the verification join.
//
// The marks name every partner the matcher has maintained. When WM holds
// partner tuples it has not been handed yet — a later class of the same
// batch, or a checkpoint restore in progress — the partner relation is
// probed on the join value instead, so each instantiation still arrives
// exactly when the verification join would add it.
func (m *Matcher) emitExact(ci *condIndex, id relation.TupleID, t relation.Tuple, partners []relation.TupleID) {
	ce := ci.ce
	other := ce.Rule.CEs[ci.partner]
	rel, ok := m.db.Get(other.Class)
	if !ok {
		return
	}
	switch {
	case rel.Len() != m.stores[other.Class].live:
		m.stats.Inc(metrics.JoinsComputed)
		partners = rel.SelectEq(ci.partnerPos, t[ci.ownPos])
	case other.Class == ce.Class:
		partners = withID(partners, id)
	}
	t0 := m.tr.Now()
	tb, _ := ce.MatchWith(t, nil)
	ins := make([]*conflict.Instantiation, 0, len(partners))
	for _, pid := range partners {
		u, live := rel.Get(pid)
		if !live {
			continue
		}
		b, ok := other.MatchWith(u, tb)
		if !ok {
			continue
		}
		x := &exactInst{}
		x.ids[ce.Index], x.tuples[ce.Index] = id, t
		x.ids[other.Index], x.tuples[other.Index] = pid, u
		x.in = conflict.Instantiation{Rule: ce.Rule, TupleIDs: x.ids[:], Tuples: x.tuples[:], Bindings: b}
		ins = append(ins, &x.in)
	}
	m.cs.AddAll(ins)
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

// withID returns ids with id merged in, leaving ids itself untouched (it
// may alias a pattern's support).
func withID(ids []relation.TupleID, id relation.TupleID) []relation.TupleID {
	i := sort.Search(len(ids), func(i int) bool { return ids[i] >= id })
	if i < len(ids) && ids[i] == id {
		return ids
	}
	out := make([]relation.TupleID, 0, len(ids)+1)
	out = append(out, ids[:i]...)
	out = append(out, id)
	return append(out, ids[i:]...)
}

// verifyAndEmit runs the selection-driven join seeded by the new tuple
// and adds every real instantiation; a candidate with no completions is a
// false drop (§2.3: "the penalty to be paid is just in processing time").
func (m *Matcher) verifyAndEmit(ce *rules.CE, id relation.TupleID, t relation.Tuple) {
	var found int64
	t0 := m.tr.Now()
	fixed := map[int]joiner.Fixed{ce.Index: {ID: id, Tuple: t}}
	// Seed the join with the pinned tuple's own bindings: every emitted
	// instantiation must carry them (the pinned condition element has to
	// match t), and handing them to the evaluator up front lets condition
	// elements scheduled before the pinned one probe their join indexes
	// instead of scanning — the case where the new tuple pins a later CE
	// and a fixed-order evaluation would otherwise open with an unbound
	// scan of the first CE's class.
	seed, ok := ce.MatchPattern(t, nil)
	if !ok {
		seed = nil
	}
	m.pl.Enumerate(m.db, ce.Rule, fixed, seed, m.stats, func(ids []relation.TupleID, tuples []relation.Tuple, b rules.Bindings) {
		found++
		m.cs.Add(&conflict.Instantiation{Rule: ce.Rule, TupleIDs: ids, Tuples: tuples, Bindings: b})
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

// retractBlocked removes every instantiation of ce's rule that one of the
// new tuples blocks through the negated condition element ce.
func (m *Matcher) retractBlocked(ce *rules.CE, entries []relation.DeltaEntry) {
	m.cs.RemoveWhere(func(in *conflict.Instantiation) bool {
		if in.Rule != ce.Rule {
			return false
		}
		for _, e := range entries {
			if _, blocked := ce.MatchWith(e.Tuple, in.Bindings); blocked {
				return true
			}
		}
		return false
	})
}

// forwardPanics runs fn(i) for each i in [0, n) concurrently and, after
// every goroutine finishes, re-raises the first captured panic in the
// caller. A panic inside parallel maintenance thereby surfaces
// synchronously where the executor's fault containment can catch it,
// instead of killing the process from an unrecoverable goroutine.
func forwardPanics(n int, fn func(i int)) {
	var wg sync.WaitGroup
	var mu sync.Mutex
	var pv any
	var panicked bool
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					mu.Lock()
					if !panicked {
						panicked, pv = true, r
					}
					mu.Unlock()
				}
			}()
			fn(i)
		}(i)
	}
	wg.Wait()
	if panicked {
		panic(pv)
	}
}

// Delete implements match.Matcher. The WM relation no longer contains the
// tuple. Every pattern support slot fed by the tuple is withdrawn (the
// counter decrement of §4.2.2); patterns with no remaining supporters
// die. Instantiations built on the tuple are retracted, and rules
// negatively dependent on the class are re-derived.
func (m *Matcher) Delete(class string, id relation.TupleID, t relation.Tuple) error {
	return m.DeleteBatch(class, []relation.DeltaEntry{{ID: id, Tuple: t}})
}

// PatternCount reports the number of stored matching patterns (original
// COND tuples excluded) — the space cost of §4.2.3.
func (m *Matcher) PatternCount() int {
	n := 0
	for _, st := range m.stores {
		st.mu.Lock()
		for _, ci := range st.conds {
			for _, sh := range ci.shapes {
				n += sh.n
			}
		}
		st.mu.Unlock()
	}
	return n
}

// DumpCond renders one class's COND relation, mirroring the tables of
// Example 5 in the paper; used by tests and for debugging.
func (m *Matcher) DumpCond(class string) []string {
	st := m.stores[class]
	if st == nil {
		return nil
	}
	var out []string
	st.mu.Lock()
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
	st.mu.Unlock()
	sort.Strings(out)
	return out
}
