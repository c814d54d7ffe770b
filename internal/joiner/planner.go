package joiner

import (
	"sync"

	"prodsys/internal/metrics"
	"prodsys/internal/relation"
	"prodsys/internal/rules"
)

// driftCheckEvery is how many executions a cached plan serves between
// cardinality drift checks.
const driftCheckEvery = 32

// Planner compiles and caches cost-based join orders for rule LHS
// evaluation. Every system runs with one; a nil *Planner, set only
// through a matcher's SetPlanner(nil), falls through to the source-order
// Enumerate, which the crosscheck tests keep as their reference oracle.
// Planner is safe for concurrent use.
type Planner struct {
	db    *relation.DB
	stats *metrics.Set

	mu    sync.RWMutex
	plans map[planKey]*Plan
}

type planKey struct {
	rule   *rules.Rule
	pinned int
}

// NewPlanner creates a planner estimating cardinalities from db's
// relation statistics and counting its activity in stats (both may be
// shared with the matchers).
func NewPlanner(db *relation.DB, stats *metrics.Set) *Planner {
	return &Planner{db: db, stats: stats, plans: make(map[planKey]*Plan)}
}

// Enumerate is the planned drop-in for the package-level Enumerate:
// same contract, but the join order comes from a cached cost-based
// plan keyed on (rule, pinned condition element). A nil receiver or a
// pinned negated element falls back to source order.
func (p *Planner) Enumerate(db *relation.DB, r *rules.Rule, pin *Pin, stats *metrics.Set, emit Emit) {
	if p == nil || (pin != nil && r.CEs[pin.CE].Negated) {
		Enumerate(db, r, pin, stats, emit)
		return
	}
	pinned := -1
	if pin != nil {
		pinned = pin.CE
	}
	p.execute(p.planFor(r, pinned), r, pin, stats, emit)
}

// Query evaluates r's LHS once, as a full derivation, under a freshly
// built plan that is never cached: ad-hoc rules (one per QUEL
// statement) would otherwise grow the cache without bound. The build
// counts in plans_built like a cached one. p must be non-nil.
func (p *Planner) Query(r *rules.Rule, emit Emit) {
	p.stats.Inc(metrics.PlansBuilt)
	p.execute(buildPlan(p.db, r, -1), r, nil, p.stats, emit)
}

// Cached returns the number of plans in the cache.
func (p *Planner) Cached() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.plans)
}

// Plan returns the cached plan for (r, pinned), building (and caching)
// it on demand. pinned is the LHS index of the delta condition
// element, or -1 for the full derivation plan.
func (p *Planner) Plan(r *rules.Rule, pinned int) *Plan {
	return p.planFor(r, pinned)
}

// Plans returns every cached plan for rule r (one per delta class seen
// so far, plus the full derivation plan if requested before),
// full-derivation first. The slice is a snapshot; the plans are live.
func (p *Planner) Plans(r *rules.Rule) []*Plan {
	if p == nil {
		return nil
	}
	p.mu.RLock()
	var out []*Plan
	for k, plan := range p.plans {
		if k.rule == r {
			out = append(out, plan)
		}
	}
	p.mu.RUnlock()
	sortPlans(out)
	return out
}

// planFor serves (r, pinned) from the cache, rebuilding when the
// periodic drift check finds relation cardinalities far from the
// build-time statistics.
func (p *Planner) planFor(r *rules.Rule, pinned int) *Plan {
	key := planKey{rule: r, pinned: pinned}
	p.mu.RLock()
	plan := p.plans[key]
	p.mu.RUnlock()
	if plan != nil {
		if n := plan.execs.Add(1); n%driftCheckEvery != 0 || !p.drifted(plan) {
			p.stats.Inc(metrics.PlanCacheHits)
			return plan
		}
		p.stats.Inc(metrics.PlanInvalidations)
	}

	p.mu.Lock()
	if cur := p.plans[key]; cur != nil && cur != plan {
		// Another goroutine rebuilt while we waited.
		p.mu.Unlock()
		cur.execs.Add(1)
		p.stats.Inc(metrics.PlanCacheHits)
		return cur
	}
	fresh := buildPlan(p.db, r, pinned)
	p.plans[key] = fresh
	p.mu.Unlock()
	p.stats.Inc(metrics.PlansBuilt)
	fresh.execs.Add(1)
	return fresh
}

// drifted reports whether any positive step's relation cardinality has
// moved far enough from the build-time figure that the join order
// deserves re-costing. The slack (2x + 16) keeps small relations from
// thrashing the cache.
func (p *Planner) drifted(plan *Plan) bool {
	for _, s := range plan.Steps {
		if s.Pinned {
			continue
		}
		rel, ok := p.db.Get(s.Class)
		if !ok {
			continue
		}
		cur, base := rel.Len(), s.BaseRows
		if cur > 2*base+16 || base > 2*cur+16 {
			return true
		}
	}
	return false
}

// execute runs the plan's join order with the streaming clause-by-
// clause backtracking of Enumerate. Exactly one access path is charged
// per condition-element evaluation (the bugfix the Explain actual-vs-
// estimated reconciliation depends on), and each step accumulates its
// actual evaluation and row counts.
func (p *Planner) execute(plan *Plan, r *rules.Rule, pin *Pin, stats *metrics.Set, emit Emit) {
	st, ok := start(r, pin)
	if !ok {
		return
	}
	x := run{p: p, plan: plan, r: r, pin: pin, stats: stats, emit: emit, state: st}
	x.step(0)
}

// run is one execution of a plan. It allocates nothing per candidate:
// stored tuples are lent, and bindings are made and undone in place.
type run struct {
	p     *Planner
	plan  *Plan
	r     *rules.Rule
	pin   *Pin
	stats *metrics.Set
	emit  Emit
	state
}

// step evaluates plan step si under the bindings made so far.
func (x *run) step(si int) {
	if si == len(x.plan.Steps) {
		x.emit(x.ids, x.tuples, x.b)
		return
	}
	step := x.plan.Steps[si]
	ce := x.r.CEs[step.CE]
	if step.Pinned {
		step.evals.Add(1)
		x.extend(si, step, ce, x.pin.ID, x.pin.Tuple)
		return
	}
	rel, ok := x.p.db.Get(ce.Class)
	if !ok {
		if ce.Negated {
			x.step(si + 1) // empty class: negation trivially satisfied
		}
		return
	}
	step.evals.Add(1)
	x.stats.Inc(metrics.JoinsComputed)
	if ce.Negated {
		blocked := false
		x.p.candidates(rel, step, x.b, func(_ relation.TupleID, t relation.Tuple) bool {
			x.stats.Inc(metrics.CandidateChecks)
			if u, ok := ce.MatchWith(t, x.b); ok {
				ce.Unbind(x.b, u)
				blocked = true
				return false
			}
			return true
		})
		if blocked {
			step.rows.Add(1)
			return
		}
		x.step(si + 1)
		return
	}
	x.p.candidates(rel, step, x.b, func(id relation.TupleID, t relation.Tuple) bool {
		x.stats.Inc(metrics.CandidateChecks)
		x.extend(si, step, ce, id, t)
		return true
	})
}

// extend tries tuple t at positive step si and, when it satisfies the
// condition element, recurses into the next step.
func (x *run) extend(si int, step *PlanStep, ce *rules.CE, id relation.TupleID, t relation.Tuple) {
	u, ok := ce.MatchWith(t, x.b)
	if !ok {
		return
	}
	step.rows.Add(1)
	x.ids[step.CE], x.tuples[step.CE] = id, t
	x.step(si + 1)
	x.ids[step.CE], x.tuples[step.CE] = 0, nil
	ce.Unbind(x.b, u)
}

// candidates streams the step's candidate tuples through fn (stop on
// false) using the plan's access path. MatchWith re-checks the full
// condition element on every candidate, so any superset of the true
// matches is sound — the access path is purely an optimization. A
// probe whose key variable is unexpectedly unbound degrades to a scan.
// The tuples are the stored ones, lent.
func (p *Planner) candidates(rel *relation.Relation, step *PlanStep, b rules.Bindings, fn func(relation.TupleID, relation.Tuple) bool) {
	switch step.AccessPath {
	case AccessIndexEq, AccessIndexRange:
		key := step.probeVal
		if step.probeSlot >= 0 {
			key = b[step.probeSlot]
			if key.IsNil() {
				break
			}
		}
		if step.AccessPath == AccessIndexEq {
			for _, id := range rel.SelectEq(step.probePos, key) {
				t, live := rel.Get(id)
				if live && !fn(id, t) {
					return
				}
			}
			return
		}
		if bounds, ok := relation.RangeFor(step.probeOp, key); ok {
			for _, id := range rel.SelectRange(step.probePos, bounds.And(step.probeAnd)) {
				t, live := rel.Get(id)
				if live && !fn(id, t) {
					return
				}
			}
			return
		}
	}
	rel.Scan(fn)
}
