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
// plan keyed on (rule, pinned condition element). Evaluations the
// planner cannot specialize — a nil receiver, multiple pinned
// elements, or a pinned negated element — fall back to source order.
func (p *Planner) Enumerate(db *relation.DB, r *rules.Rule, fixed map[int]Fixed, seed rules.Bindings, stats *metrics.Set, emit Emit) {
	if p == nil || len(fixed) > 1 {
		Enumerate(db, r, fixed, seed, stats, emit)
		return
	}
	pinned := -1
	for i := range fixed {
		pinned = i
	}
	if pinned >= 0 && r.CEs[pinned].Negated {
		Enumerate(db, r, fixed, seed, stats, emit)
		return
	}
	plan := p.planFor(r, pinned)
	p.execute(plan, r, fixed, seed, stats, emit)
}

// Query evaluates r's LHS once, as a full derivation, under a freshly
// built plan that is never cached: ad-hoc rules (one per QUEL
// statement) would otherwise grow the cache without bound. The build
// counts in plans_built like a cached one. p must be non-nil.
func (p *Planner) Query(r *rules.Rule, emit Emit) {
	p.stats.Inc(metrics.PlansBuilt)
	p.execute(buildPlan(p.db, r, -1), r, nil, nil, p.stats, emit)
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
func (p *Planner) execute(plan *Plan, r *rules.Rule, fixed map[int]Fixed, seed rules.Bindings, stats *metrics.Set, emit Emit) {
	n := len(r.CEs)
	ids := make([]relation.TupleID, n)
	tuples := make([]relation.Tuple, n)
	if seed == nil {
		seed = rules.Bindings{}
	}
	var rec func(si int, b rules.Bindings)
	rec = func(si int, b rules.Bindings) {
		if si == len(plan.Steps) {
			emit(append([]relation.TupleID(nil), ids...),
				append([]relation.Tuple(nil), tuples...), b.Clone())
			return
		}
		step := plan.Steps[si]
		ce := r.CEs[step.CE]
		if step.Pinned {
			f := fixed[step.CE]
			step.evals.Add(1)
			nb, ok := ce.MatchWith(f.Tuple, b)
			if !ok {
				return
			}
			step.rows.Add(1)
			ids[step.CE], tuples[step.CE] = f.ID, f.Tuple
			rec(si+1, nb)
			ids[step.CE], tuples[step.CE] = 0, nil
			return
		}
		rel, ok := p.db.Get(ce.Class)
		if !ok {
			if ce.Negated {
				rec(si+1, b) // empty class: negation trivially satisfied
			}
			return
		}
		step.evals.Add(1)
		stats.Inc(metrics.JoinsComputed)
		if ce.Negated {
			blocked := false
			p.candidates(rel, step, b, func(id relation.TupleID, t relation.Tuple) bool {
				stats.Inc(metrics.CandidateChecks)
				if _, ok := ce.MatchWith(t, b); ok {
					blocked = true
					return false
				}
				return true
			})
			if blocked {
				step.rows.Add(1)
				return
			}
			rec(si+1, b)
			return
		}
		p.candidates(rel, step, b, func(id relation.TupleID, t relation.Tuple) bool {
			stats.Inc(metrics.CandidateChecks)
			nb, ok := ce.MatchWith(t, b)
			if !ok {
				return true
			}
			step.rows.Add(1)
			ids[step.CE], tuples[step.CE] = id, t
			rec(si+1, nb)
			ids[step.CE], tuples[step.CE] = 0, nil
			return true
		})
	}
	rec(0, seed)
}

// candidates streams the step's candidate tuples through fn (stop on
// false) using the plan's access path. MatchWith re-checks the full
// condition element on every candidate, so any superset of the true
// matches is sound — the access path is purely an optimization. A
// probe whose key variable is unexpectedly unbound degrades to a scan.
func (p *Planner) candidates(rel *relation.Relation, step *PlanStep, b rules.Bindings, fn func(relation.TupleID, relation.Tuple) bool) {
	switch step.AccessPath {
	case AccessIndexEq, AccessIndexRange:
		key := step.probeVal
		if step.probeVar != "" {
			v, bound := b[step.probeVar]
			if !bound {
				break
			}
			key = v
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
	rel.Scan(func(id relation.TupleID, t relation.Tuple) bool {
		ct := t.Clone() // Scan lends its tuples; emitted tuples are retained
		return fn(id, ct)
	})
}
