package joiner

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"prodsys/internal/relation"
	"prodsys/internal/rules"
	"prodsys/internal/value"
)

// Access names the access path a plan step uses to fetch candidate
// tuples for its condition element.
type Access string

const (
	// AccessPinned means the step checks exactly the delta tuple that
	// seeded this evaluation — no relation access at all.
	AccessPinned Access = "pinned"
	// AccessIndexEq probes the hash index with an equality key (a
	// constant or a variable bound by an earlier step).
	AccessIndexEq Access = "index-eq"
	// AccessIndexRange probes the ordered index with a range derived
	// from an inequality restriction.
	AccessIndexRange Access = "index-range"
	// AccessScan reads every live tuple of the relation.
	AccessScan Access = "scan"
)

// PlanStep is one condition element's slot in a compiled join order.
// Estimated figures are fixed at build time from relation statistics;
// actual figures accumulate as the plan executes.
type PlanStep struct {
	// Join is the step's position in the chosen join order (0-based).
	Join int
	// CE is the condition element's LHS index (0-based source order).
	CE int
	// Class is the condition element's WM class.
	Class string
	// Negated marks a NOT EXISTS step.
	Negated bool
	// Pinned marks the delta-seeded step of an incremental evaluation.
	Pinned bool
	// AccessPath is the access path chosen at build time.
	AccessPath Access
	// Attr is the probed attribute name ("" for pinned and scan steps).
	Attr string
	// BaseRows is the relation cardinality observed at build time.
	BaseRows int
	// EstRows is the estimated number of tuples this step emits per
	// evaluation of the step (i.e. per binding reaching it).
	EstRows float64

	// probe describes how to compute the index key at run time.
	probePos  int
	probeOp   value.Op
	probeSlot int             // slot of the bound variable supplying the key (-1 = constant)
	probeVal  value.V         // constant key when probeSlot < 0
	probeAnd  relation.Bounds // further constant bounds of a range probe

	evals atomic.Int64 // times the step was evaluated
	rows  atomic.Int64 // tuples that satisfied the full CE test
}

// Evals returns how many times the step has been evaluated.
func (s *PlanStep) Evals() int64 { return s.evals.Load() }

// Rows returns how many tuples have satisfied the step across all
// evaluations.
func (s *PlanStep) Rows() int64 { return s.rows.Load() }

// ActualRows returns the measured average tuples emitted per
// evaluation — the figure Explain reconciles against EstRows.
func (s *PlanStep) ActualRows() float64 {
	e := s.evals.Load()
	if e == 0 {
		return 0
	}
	return float64(s.rows.Load()) / float64(e)
}

// Plan is a compiled join order for one rule, possibly specialized to a
// delta class (the pinned condition element of an incremental
// evaluation). Steps are in execution order; estimated cardinalities
// are from build-time statistics, actuals from execution.
type Plan struct {
	// Rule is the planned rule's name.
	Rule string
	// Pinned is the LHS index of the delta-seeded condition element, or
	// -1 for a full derivation plan.
	Pinned int
	// DeltaClass is the pinned condition element's class ("" when
	// Pinned is -1) — the plan-cache key alongside the rule.
	DeltaClass string
	// Steps is the chosen join order.
	Steps []*PlanStep

	execs atomic.Int64 // executions, for periodic drift checks
}

// Execs returns how many times the plan has been executed.
func (p *Plan) Execs() int64 { return p.execs.Load() }

// Step returns the step evaluating the condition element with LHS
// index ce, or nil.
func (p *Plan) Step(ce int) *PlanStep {
	for _, s := range p.Steps {
		if s.CE == ce {
			return s
		}
	}
	return nil
}

// String renders the plan as an explain table: one line per step with
// the access path and estimated vs actual cardinality.
func (p *Plan) String() string {
	var b strings.Builder
	delta := "full derivation"
	if p.Pinned >= 0 {
		delta = fmt.Sprintf("delta CE%d %s", p.Pinned+1, p.DeltaClass)
	}
	fmt.Fprintf(&b, "plan %s (%s, %d executions)\n", p.Rule, delta, p.Execs())
	for _, s := range p.Steps {
		access := string(s.AccessPath)
		if s.Attr != "" {
			access += "(" + s.Attr + ")"
		}
		neg := ""
		if s.Negated {
			neg = " not-exists"
		}
		fmt.Fprintf(&b, "  %d. CE%d %-12s %-20s%s est=%.2f actual=%.2f (rows %d / evals %d, base %d)\n",
			s.Join+1, s.CE+1, s.Class, access, neg,
			s.EstRows, s.ActualRows(), s.Rows(), s.Evals(), s.BaseRows)
	}
	return b.String()
}

// eqSelectivity estimates the fraction of a relation matched by an
// equality restriction on pos: 1/distinct when the ordered statistics
// know the column, a fixed guess otherwise.
func eqSelectivity(st relation.StoreStats, pos int) float64 {
	for _, ix := range st.Indexes {
		if ix.Pos == pos {
			if ix.Distinct > 0 {
				return 1 / float64(ix.Distinct)
			}
			return 1
		}
	}
	return selEqUnindexed
}

// Default selectivity guesses for predicates the statistics cannot
// size, in the tradition of System R.
const (
	selEqUnindexed = 0.1
	selRange       = 1.0 / 3.0
	selNe          = 0.9
)

// opSelectivity estimates the fraction matched by op on pos.
func opSelectivity(st relation.StoreStats, pos int, op value.Op) float64 {
	switch op {
	case value.OpEq:
		return eqSelectivity(st, pos)
	case value.OpNe:
		return selNe
	default:
		return selRange
	}
}

// attrName resolves the attribute name at pos from the statistics
// (which carry schema names for indexed columns) or the schema.
func attrName(ce *rules.CE, pos int) string {
	if ce.Schema != nil && pos >= 0 && pos < ce.Schema.Arity() {
		return ce.Schema.Attrs()[pos]
	}
	return fmt.Sprintf("#%d", pos)
}

// buildStep sizes one candidate condition element under the variables
// bound so far: it picks the cheapest available access path (mirroring
// the index-probe cascade the executor uses) and estimates the
// rows the step emits.
func buildStep(rel *relation.Relation, ce *rules.CE, bound map[string]bool) *PlanStep {
	st := rel.Stats()
	n := float64(st.Tuples)
	step := &PlanStep{
		CE:       ce.Index,
		Class:    ce.Class,
		Negated:  ce.Negated,
		BaseRows: st.Tuples,
	}

	// Collect every predicate a bound-variable or constant restriction
	// contributes, tracking the best indexed equality and range probes.
	type pred struct {
		pos  int
		op   value.Op
		slot int     // -1 for constants
		val  value.V // constant value when slot < 0
	}
	var preds []pred
	for _, c := range ce.Consts {
		preds = append(preds, pred{pos: c.Pos, op: c.Op, slot: -1, val: c.Val})
	}
	sel := 1.0
	for _, d := range ce.Disj {
		s := float64(len(d.Vals)) * eqSelectivity(st, d.Pos)
		if s < 1 {
			sel *= s
		}
	}
	for _, vt := range ce.VarTests {
		if bound[vt.Var] {
			preds = append(preds, pred{pos: vt.Pos, op: vt.Op, slot: vt.Slot})
		}
		// An unbound equality test binds the variable: selectivity 1.
	}

	bestEq, bestEqDistinct := -1, 0
	bestRange := -1
	for i, p := range preds {
		sel *= opSelectivity(st, p.pos, p.op)
		if !rel.HasIndex(p.pos) {
			continue
		}
		switch {
		case p.op == value.OpEq:
			d := 1
			for _, ix := range st.Indexes {
				if ix.Pos == p.pos {
					d = ix.Distinct
				}
			}
			if bestEq < 0 || d > bestEqDistinct {
				bestEq, bestEqDistinct = i, d
			}
		case p.op != value.OpNe && rel.HasOrderedIndex(p.pos):
			if bestRange < 0 {
				bestRange = i
			}
		}
	}
	if sel > 1 {
		sel = 1
	}
	step.EstRows = n * sel

	switch {
	case bestEq >= 0:
		p := preds[bestEq]
		step.AccessPath = AccessIndexEq
		step.Attr = attrName(ce, p.pos)
		step.probePos, step.probeOp, step.probeSlot, step.probeVal = p.pos, p.op, p.slot, p.val
	case bestRange >= 0:
		p := preds[bestRange]
		step.AccessPath = AccessIndexRange
		step.Attr = attrName(ce, p.pos)
		step.probePos, step.probeOp, step.probeSlot, step.probeVal = p.pos, p.op, p.slot, p.val
		// Every other constant range on the attribute narrows the probe
		// (lo <= qty < hi reads one window, as Relation.Select does).
		for i, q := range preds {
			if b, ok := relation.RangeFor(q.op, q.val); ok && i != bestRange && q.pos == p.pos && q.slot < 0 {
				step.probeAnd = step.probeAnd.And(b)
			}
		}
	default:
		step.AccessPath = AccessScan
	}
	return step
}

// probeCost estimates the candidate tuples the step's access path
// fetches per evaluation (the work MatchWith must filter).
func probeCost(step *PlanStep) float64 {
	n := float64(step.BaseRows)
	switch step.AccessPath {
	case AccessIndexEq:
		// One hash bucket; approximate with the emitted rows.
		if step.EstRows > 1 {
			return step.EstRows
		}
		return 1
	case AccessIndexRange:
		return n * selRange
	default:
		return n
	}
}

// buildPlan compiles a join order for rule r seeded at the pinned
// condition element (-1 for a full derivation). Ordering is greedy by
// estimated output rows with probe cost and LHS position as
// tie-breaks, under two safety constraints that preserve LHS
// semantics:
//
//   - a positive condition element is schedulable only when every
//     variable of its non-equality tests (not preceded by a same-CE
//     binding occurrence) is already bound — MatchWith fails closed on
//     a non-equality test against an unbound variable;
//   - a negated condition element at LHS index i runs only after every
//     positive condition element with a smaller index, so its NOT
//     EXISTS check sees exactly the bindings it would in source order.
func buildPlan(db *relation.DB, r *rules.Rule, pinned int) *Plan {
	p := &Plan{Rule: r.Name, Pinned: pinned}
	if pinned >= 0 {
		p.DeltaClass = r.CEs[pinned].Class
	}
	bound := map[string]bool{}
	scheduled := make([]bool, len(r.CEs))

	add := func(step *PlanStep, ce *rules.CE) {
		step.Join = len(p.Steps)
		p.Steps = append(p.Steps, step)
		scheduled[ce.Index] = true
		if !ce.Negated || ce.Index == pinned {
			for _, v := range ce.ExtractableVars() {
				bound[v] = true
			}
		}
	}

	// schedulable reports whether ce may run under the current bound
	// set without changing semantics.
	schedulable := func(ce *rules.CE) bool {
		if ce.Negated {
			for _, other := range r.CEs {
				if !other.Negated && other.Index < ce.Index && !scheduled[other.Index] {
					return false
				}
			}
			return true
		}
		local := map[string]bool{}
		for _, vt := range ce.VarTests {
			if vt.Op == value.OpEq {
				local[vt.Var] = true
				continue
			}
			if !local[vt.Var] && !bound[vt.Var] {
				return false
			}
		}
		return true
	}

	for len(p.Steps) < len(r.CEs) {
		// The pinned condition element costs nothing (one MatchWith
		// against the delta tuple), so it runs as early as its own
		// non-equality tests allow — usually first.
		if pinned >= 0 && !scheduled[pinned] && schedulable(r.CEs[pinned]) {
			ce := r.CEs[pinned]
			add(&PlanStep{
				CE: ce.Index, Class: ce.Class, Negated: ce.Negated,
				Pinned: true, AccessPath: AccessPinned, EstRows: 1, BaseRows: 1,
			}, ce)
			continue
		}
		var best *PlanStep
		var bestCE *rules.CE
		for _, ce := range r.CEs {
			if scheduled[ce.Index] || ce.Index == pinned || !schedulable(ce) {
				continue
			}
			rel, ok := db.Get(ce.Class)
			var cand *PlanStep
			if ok {
				cand = buildStep(rel, ce, bound)
			} else {
				cand = &PlanStep{CE: ce.Index, Class: ce.Class, Negated: ce.Negated, AccessPath: AccessScan}
			}
			if best == nil || less(cand, best) {
				best, bestCE = cand, ce
			}
		}
		if best == nil {
			// Defensive: compilation guarantees source order is always
			// schedulable, so this cannot trigger; fall back to the
			// first unscheduled condition element to stay total.
			for _, ce := range r.CEs {
				if !scheduled[ce.Index] && ce.Index != pinned {
					rel, ok := db.Get(ce.Class)
					if ok {
						best = buildStep(rel, ce, bound)
					} else {
						best = &PlanStep{CE: ce.Index, Class: ce.Class, Negated: ce.Negated, AccessPath: AccessScan}
					}
					bestCE = ce
					break
				}
			}
			if best == nil {
				// Only the pinned element remains: schedule it even if
				// its non-equality tests stay unsatisfiable (MatchWith
				// then fails closed, exactly as source order would).
				ce := r.CEs[pinned]
				add(&PlanStep{
					CE: ce.Index, Class: ce.Class, Negated: ce.Negated,
					Pinned: true, AccessPath: AccessPinned, EstRows: 1, BaseRows: 1,
				}, ce)
				continue
			}
		}
		add(best, bestCE)
	}
	return p
}

// less orders candidate steps: fewer estimated output rows first, then
// cheaper probes, then LHS order for determinism.
func less(a, b *PlanStep) bool {
	if a.EstRows != b.EstRows {
		return a.EstRows < b.EstRows
	}
	ca, cb := probeCost(a), probeCost(b)
	if ca != cb {
		return ca < cb
	}
	return a.CE < b.CE
}

// sortPlans orders plans for rendering: full derivation first, then by
// pinned condition element.
func sortPlans(ps []*Plan) {
	sort.Slice(ps, func(i, j int) bool { return ps[i].Pinned < ps[j].Pinned })
}
