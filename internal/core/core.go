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
// Detection is a single search of one COND relation: a newly inserted
// tuple is matched against the class's patterns, and the rule becomes a
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
// COND-relation growth.
//
// Negated condition elements are enforced at verification time (the NOT
// EXISTS check of §5.2) rather than through inverted marks.
package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"prodsys/internal/conflict"
	"prodsys/internal/joiner"
	"prodsys/internal/metrics"
	"prodsys/internal/relation"
	"prodsys/internal/rules"
	"prodsys/internal/trace"
)

// idSet is a set of supporting tuple IDs.
type idSet map[relation.TupleID]struct{}

// ceKey identifies a condition element within the rule set.
type ceKey struct {
	rule *rules.Rule
	ce   int
}

// pattern is one COND-relation tuple: the attribute restrictions of a
// condition element, partially instantiated by bind, supported per
// contributing condition element.
type pattern struct {
	ce   *rules.CE
	bind rules.Bindings
	// support maps a contributing CE index (an RCE) to the IDs of the
	// working-memory tuples of that condition element's class whose
	// projections created this pattern.
	support  map[int]idSet
	original bool
	key      string
}

// patternKey canonically names a pattern.
func patternKey(ce *rules.CE, bind rules.Bindings) string {
	return fmt.Sprintf("%s|%d|%s", ce.Rule.Name, ce.CEN(), bind.Key())
}

// store is the COND relation of one class. The original COND tuples
// seeded at construction never gain support (propagation always projects
// a non-empty binding) and head their condition element's list.
type store struct {
	mu    sync.Mutex
	byCE  map[ceKey][]*pattern
	byKey map[string]*pattern
}

func newStore() *store {
	return &store{byCE: make(map[ceKey][]*pattern), byKey: make(map[string]*pattern)}
}

// snapshot copies the pattern list for one condition element.
func (s *store) snapshot(k ceKey) []*pattern {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*pattern(nil), s.byCE[k]...)
}

// patterns returns every COND tuple of the store in key order.
func (s *store) patterns() []*pattern {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*pattern, 0, len(s.byKey))
	for _, p := range s.byKey {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

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
	parallel bool
	ioDelay  time.Duration
	tr       *trace.Tracer
	pl       *joiner.Planner

	// contributors[ce] lists the indices of the other positive condition
	// elements of ce's rule that can deliver a matching pattern to ce's
	// COND relation (they equality-bind a variable ce references); the
	// fire check requires a mark from each. targets[ce] is the inverse:
	// the condition elements ce's own insertions must propagate to.
	contributors map[*rules.CE][]int
	targets      map[*rules.CE][]int

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

// New builds the matcher over the engine's WM catalog, seeding every
// positive condition element's original COND tuple. stats may be nil.
func New(set *rules.Set, db *relation.DB, cs *conflict.Set, stats *metrics.Set, opts ...Option) *Matcher {
	m := &Matcher{
		set:          set,
		db:           db,
		cs:           cs,
		stats:        stats,
		stores:       make(map[string]*store),
		contributors: make(map[*rules.CE][]int),
		targets:      make(map[*rules.CE][]int),
		byTuple:      make(map[wmeKey][]patSlot),
	}
	for _, o := range opts {
		o(m)
	}
	for name := range set.Classes {
		m.stores[name] = newStore()
	}
	for _, r := range set.Rules {
		for _, ce := range r.CEs {
			if ce.Negated {
				continue
			}
			p := &pattern{
				ce:       ce,
				bind:     rules.Bindings{},
				support:  make(map[int]idSet),
				original: true,
			}
			p.key = patternKey(ce, p.bind)
			st := m.stores[ce.Class]
			k := ceKey{rule: r, ce: ce.Index}
			st.byCE[k] = append(st.byCE[k], p)
			st.byKey[p.key] = p
			m.stats.Inc(metrics.CondTuplesStored)
			m.contributors[ce] = positiveSharers(r, ce.Index)
		}
	}
	// targets is the inverse of contributors: i propagates to j exactly
	// when i contributes to j.
	for _, r := range set.Rules {
		for _, ce := range r.CEs {
			if ce.Negated {
				continue
			}
			for _, j := range m.contributors[ce] {
				src := r.CEs[j]
				m.targets[src] = append(m.targets[src], ce.Index)
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
	st := m.stores[class]
	for _, ce := range m.set.ByClass[class] {
		m.stats.Inc(metrics.PatternSearches)
		if ce.Negated {
			m.retractBlocked(ce, t)
			continue
		}
		k := ceKey{rule: ce.Rule, ce: ce.Index}
		// The single search of COND-class: which patterns does t match,
		// and what is the union of their marks?
		var matchedAny bool
		var checked int64
		t0 := m.tr.Now()
		marks := map[int]bool{}
		for _, p := range st.snapshot(k) {
			checked++
			if _, ok := ce.MatchPattern(t, p.bind); !ok {
				continue
			}
			matchedAny = true
			for y, ids := range p.support {
				if len(ids) > 0 {
					marks[y] = true
				}
			}
		}
		m.stats.Add(metrics.CandidateChecks, checked)
		if m.tr.Enabled() {
			m.tr.Emit(trace.Event{
				Kind: trace.KindCondScan, At: t0, Dur: m.tr.Now() - t0,
				Rule: ce.Rule.Name, CE: ce.Index, Class: class, ID: uint64(id), Count: checked,
			})
		}
		if !matchedAny {
			continue
		}
		// Conflict set first (§4.2.3): the rule is applicable when every
		// variable-sharing RCE has contributed a compatible pattern.
		fire := true
		for _, j := range m.contributors[ce] {
			if !marks[j] {
				fire = false
				break
			}
		}
		if fire {
			m.verifyAndEmit(ce, id, t)
		}
		// Maintenance second: propagate this tuple's bindings. The full
		// variable assignment is extracted pattern-style so that variables
		// bound by OTHER condition elements (non-binding equality
		// occurrences here) still project their values.
		if tb, ok := ce.MatchPattern(t, nil); ok {
			m.propagate(ce, id, tb)
		}
	}
	return nil
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

// retractBlocked removes instantiations whose negated condition element
// the new tuple now satisfies.
func (m *Matcher) retractBlocked(ce *rules.CE, t relation.Tuple) {
	m.cs.RemoveWhere(func(in *conflict.Instantiation) bool {
		if in.Rule != ce.Rule {
			return false
		}
		_, blocked := ce.MatchWith(t, in.Bindings)
		return blocked
	})
}

// propagate performs the maintenance process: project the new tuple's
// bindings onto every variable-sharing related condition element and
// insert (or reinforce) the resulting matching pattern in that COND
// relation, optionally in parallel.
func (m *Matcher) propagate(ce *rules.CE, id relation.TupleID, tb rules.Bindings) {
	targets := m.targets[ce]
	if len(targets) == 0 {
		return
	}
	if m.parallel && len(targets) > 1 {
		m.stats.Inc(metrics.ParallelBatches)
		forwardPanics(len(targets), func(i int) {
			m.propagateTo(ce, id, tb, targets[i])
		})
		return
	}
	for _, j := range targets {
		m.propagateTo(ce, id, tb, j)
	}
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

// propagateTo inserts the tuple's projected matching pattern into the
// COND relation of one related condition element.
func (m *Matcher) propagateTo(ce *rules.CE, id relation.TupleID, tb rules.Bindings, j int) {
	m.stats.Inc(metrics.MaintenanceOps)
	t0 := m.tr.Now()
	if m.ioDelay > 0 {
		time.Sleep(m.ioDelay) // simulated COND-relation page write
	}
	target := ce.Rule.CEs[j]
	proj := rules.Bindings{}
	for _, v := range target.Vars() {
		if val, ok := tb[v]; ok {
			proj[v] = val
		}
	}
	if len(proj) == 0 {
		return
	}
	m.upsert(m.stores[target.Class], ceKey{rule: ce.Rule, ce: j}, target, proj, ce.Index, id)
	if m.tr.Enabled() {
		m.tr.Emit(trace.Event{
			Kind: trace.KindPatternPropagate, At: t0, Dur: m.tr.Now() - t0,
			Rule: ce.Rule.Name, CE: j, Class: target.Class, ID: uint64(id), Count: 1,
		})
	}
}

// upsert creates or reinforces the matching pattern (target, bind),
// recording the new tuple as a supporter of the source condition element.
func (m *Matcher) upsert(tst *store, k ceKey, target *rules.CE, bind rules.Bindings, srcIdx int, id relation.TupleID) {
	key := patternKey(target, bind)
	tst.mu.Lock()
	p, exists := tst.byKey[key]
	if !exists {
		p = &pattern{
			ce:      target,
			bind:    bind,
			support: make(map[int]idSet),
			key:     key,
		}
		tst.byKey[key] = p
		tst.byCE[k] = append(tst.byCE[k], p)
		m.stats.Inc(metrics.PatternsStored)
		m.stats.Inc(metrics.CondTuplesStored)
	}
	set := p.support[srcIdx]
	if set == nil {
		set = make(idSet)
		p.support[srcIdx] = set
	}
	_, dup := set[id]
	if !dup {
		set[id] = struct{}{}
	}
	tst.mu.Unlock()
	if !dup {
		m.link(wmeKey{class: target.Rule.CEs[srcIdx].Class, id: id}, p, srcIdx)
	}
}

// link records that the WM tuple supports pattern p at slot ceIdx.
func (m *Matcher) link(wk wmeKey, p *pattern, ceIdx int) {
	m.refMu.Lock()
	m.byTuple[wk] = append(m.byTuple[wk], patSlot{p: p, ceIdx: ceIdx})
	m.refMu.Unlock()
}

// Delete implements match.Matcher. The WM relation no longer contains the
// tuple. Every pattern support slot fed by the tuple is withdrawn (the
// counter decrement of §4.2.2); patterns with no remaining supporters
// die. Instantiations built on the tuple are retracted, and rules
// negatively dependent on the class are re-derived.
func (m *Matcher) Delete(class string, id relation.TupleID, _ relation.Tuple) error {
	wk := wmeKey{class: class, id: id}
	m.refMu.Lock()
	slots := m.byTuple[wk]
	delete(m.byTuple, wk)
	m.refMu.Unlock()

	for _, slot := range slots {
		p := slot.p
		st := m.stores[p.ce.Class]
		st.mu.Lock()
		if set := p.support[slot.ceIdx]; set != nil {
			delete(set, id)
			if len(set) == 0 {
				delete(p.support, slot.ceIdx)
			}
		}
		if !p.original && len(p.support) == 0 {
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
		st.mu.Unlock()
	}

	m.cs.RemoveByTuple(class, id)

	// Deletion may unblock negatively dependent rules.
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
				Rule: ce.Rule.Name, CE: ce.Index, Class: class, ID: uint64(id), Count: found,
			})
		}
	}
	return nil
}

// PatternCount reports the number of stored matching patterns (original
// COND tuples excluded) — the space cost of §4.2.3.
func (m *Matcher) PatternCount() int {
	n := 0
	for _, st := range m.stores {
		st.mu.Lock()
		for _, p := range st.byKey {
			if !p.original {
				n++
			}
		}
		st.mu.Unlock()
	}
	return n
}

// DumpCond renders one class's COND relation, mirroring the tables of
// Example 5 in the paper; used by the psbench figure commands and tests.
func (m *Matcher) DumpCond(class string) []string {
	st := m.stores[class]
	if st == nil {
		return nil
	}
	var out []string
	st.mu.Lock()
	for _, p := range st.byKey {
		marks := make([]string, 0, len(p.support))
		for ceIdx, ids := range p.support {
			marks = append(marks, fmt.Sprintf("%s:%d×%d", p.ce.Rule.CEs[ceIdx].Class, ceIdx+1, len(ids)))
		}
		sort.Strings(marks)
		tag := ""
		if p.original {
			tag = " (original)"
		}
		out = append(out, fmt.Sprintf("%s CEN=%d {%s} marks=%v%s",
			p.ce.Rule.Name, p.ce.CEN(), p.bind.Key(), marks, tag))
	}
	st.mu.Unlock()
	sort.Strings(out)
	return out
}
