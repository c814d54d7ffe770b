// Package audit implements online integrity auditing for the matchers:
// the ground truth of every derived structure — conflict-set
// instantiations, COND-relation Mark counters, Rete beta memories, rule
// markers, condition indexes — is recomputed from the base WM relations
// (reusing the simplified algorithm's joins, §4.1) and diffed against the
// matcher's incrementally maintained state. Divergences are reported as
// typed records and, on request, repaired by rebuilding the affected
// rules' derived state from working memory.
//
// The auditor runs online between firings: the engine exposes its
// maintenance lock, so an audit sees a quiescent, transaction-consistent
// snapshot. A full audit checks every rule; the sampled mode checks a
// budgeted, rotating window of rules per run, amortizing the cost of
// continuous auditing across many runs.
package audit

import (
	"fmt"
	"slices"
	"sort"

	"prodsys/internal/conflict"
	"prodsys/internal/joiner"
	"prodsys/internal/match"
	"prodsys/internal/metrics"
	"prodsys/internal/relation"
	"prodsys/internal/rules"
	"prodsys/internal/trace"
)

// Report is the outcome of one audit run.
type Report struct {
	// Matcher names the audited matching algorithm.
	Matcher string
	// RulesChecked counts the rules whose derived state was verified.
	RulesChecked int
	// Sampled reports whether this run checked a budgeted window of rules
	// rather than all of them.
	Sampled bool
	// Divergences lists every disagreement found, deterministically
	// ordered.
	Divergences []match.Divergence
	// Repaired counts divergences addressed by the repair pass.
	Repaired int
	// Rebuilt reports whether the repair rebuilt matcher derived state.
	Rebuilt bool
}

// Clean reports whether the audit found no divergence.
func (r *Report) Clean() bool { return len(r.Divergences) == 0 }

// Options tunes one audit run.
type Options struct {
	// MaxRules, when positive and smaller than the rule count, switches
	// to sampled mode: each run checks at most this many rules, rotating
	// through the rule set across runs.
	MaxRules int
	// Repair rebuilds the affected derived state when divergences are
	// found, so an immediate re-audit comes back clean.
	Repair bool
}

// Auditor recomputes matcher ground truth from working memory. It keeps
// the rotating cursor of the sampled mode, so reuse one Auditor across
// runs. Not safe for concurrent use; run it under the engine's
// maintenance lock.
type Auditor struct {
	set    *rules.Set
	db     *relation.DB
	m      match.Matcher
	stats  *metrics.Set
	tr     *trace.Tracer
	cursor int
}

// New builds an auditor over the matcher's rule set and WM catalog.
// stats may be nil.
func New(set *rules.Set, db *relation.DB, m match.Matcher, stats *metrics.Set) *Auditor {
	return &Auditor{set: set, db: db, m: m, stats: stats}
}

// SetTracer wires the execution tracer; audit runs, divergences, and
// repairs are emitted as events. A nil tracer disables emission.
func (a *Auditor) SetTracer(tr *trace.Tracer) { a.tr = tr }

// Gate runs a full, repair-free audit as a go/no-go check — the
// promotion gate of WAL log-shipping failover: a replica may only turn
// primary if its derived state matches ground truth exactly. The
// report is returned either way; the error is non-nil when the gate
// fails, naming the divergence count and the first instance.
func (a *Auditor) Gate() (*Report, error) {
	rep, err := a.Run(Options{})
	if err != nil {
		return rep, fmt.Errorf("audit gate: %w", err)
	}
	if !rep.Clean() {
		return rep, fmt.Errorf("audit gate: %d divergences, first: %s",
			len(rep.Divergences), rep.Divergences[0].String())
	}
	return rep, nil
}

// Run performs one audit: conflict-set ground truth for the selected
// rules, then the matcher's own derived state via its AuditDerived. With
// opts.Repair, divergent rules' derived state is rebuilt from WM and
// the conflict set reconciled. The returned report is always non-nil;
// the error reports a failed rebuild.
func (a *Auditor) Run(opts Options) (*Report, error) {
	all := a.set.Rules
	selected := all
	rep := &Report{Matcher: a.m.Name()}
	var only map[string]bool
	if opts.MaxRules > 0 && opts.MaxRules < len(all) {
		rep.Sampled = true
		selected = make([]*rules.Rule, 0, opts.MaxRules)
		only = make(map[string]bool, opts.MaxRules)
		for i := 0; i < opts.MaxRules; i++ {
			r := all[(a.cursor+i)%len(all)]
			if only[r.Name] {
				continue
			}
			only[r.Name] = true
			selected = append(selected, r)
		}
		a.cursor = (a.cursor + opts.MaxRules) % len(all)
	}
	rep.RulesChecked = len(selected)
	emit := func(d match.Divergence) { rep.Divergences = append(rep.Divergences, d) }

	t0 := a.tr.Now()
	a.auditConflictSet(selected, emit)
	a.m.AuditDerived(a.db, only, emit)
	sort.Slice(rep.Divergences, func(i, j int) bool {
		di, dj := rep.Divergences[i], rep.Divergences[j]
		if di.Class != dj.Class {
			return di.Class < dj.Class
		}
		if di.Rule != dj.Rule {
			return di.Rule < dj.Rule
		}
		return di.Key < dj.Key
	})

	a.stats.Inc(metrics.AuditRuns)
	a.stats.Add(metrics.AuditRulesChecked, int64(len(selected)))
	a.stats.Add(metrics.AuditDivergences, int64(len(rep.Divergences)))
	if a.tr.Enabled() {
		a.tr.Emit(trace.Event{
			Kind: trace.KindAuditRun, At: t0, Dur: a.tr.Now() - t0,
			CE: -1, Count: int64(len(rep.Divergences)), Extra: rep.Matcher,
		})
		for _, d := range rep.Divergences {
			a.tr.Emit(trace.Event{
				Kind: trace.KindAuditDivergence, At: a.tr.Now(),
				Rule: d.Rule, CE: d.CE, Extra: d.String(),
			})
		}
	}

	if !opts.Repair || rep.Clean() {
		return rep, nil
	}
	if err := a.repair(rep); err != nil {
		return rep, err
	}
	return rep, nil
}

// auditConflictSet diffs the conflict set's unfired instantiations
// against the full LHS joins of the selected rules, honoring refraction
// (fired keys are expected to be absent).
func (a *Auditor) auditConflictSet(selected []*rules.Rule, emit func(match.Divergence)) {
	cs := a.m.ConflictSet()
	sel := make(map[string]bool, len(selected))
	for _, r := range selected {
		sel[r.Name] = true
	}
	actual := map[string]map[conflict.Key]*conflict.Instantiation{}
	for _, in := range cs.SelectAll() {
		if !sel[in.Rule.Name] {
			continue
		}
		set := actual[in.Rule.Name]
		if set == nil {
			set = map[conflict.Key]*conflict.Instantiation{}
			actual[in.Rule.Name] = set
		}
		set[in.Key()] = in
	}
	for _, r := range selected {
		expected := map[conflict.Key]*conflict.Instantiation{}
		joiner.Enumerate(a.db, r, nil, a.stats, func(ids []relation.TupleID, _ []relation.Tuple, _ rules.Bindings) {
			in := &conflict.Instantiation{Rule: r, TupleIDs: slices.Clone(ids)}
			if key := in.Key(); !cs.HasFired(key) {
				expected[key] = in
			}
		})
		act := actual[r.Name]
		for k, in := range expected {
			if act[k] == nil {
				emit(match.Divergence{Class: match.DivConflictMissing, Rule: r.Name, CE: -1, Key: in.KeyString(),
					Expected: "instantiation in conflict set", Actual: "absent"})
			}
		}
		for k, in := range act {
			if expected[k] == nil {
				emit(match.Divergence{Class: match.DivConflictPhantom, Rule: r.Name, CE: -1, Key: in.KeyString(),
					Expected: "absent", Actual: "instantiation in conflict set"})
			}
		}
	}
}

// repair rebuilds the divergent rules' derived state from WM (falling
// back to a full matcher rebuild when a divergence is not attributable
// to one rule) and reconciles the conflict set against the ground
// truth, so an immediate re-audit is clean.
func (a *Auditor) repair(rep *Report) error {
	affected := map[string]bool{}
	ruleLevel := true
	for _, d := range rep.Divergences {
		if d.Rule == "" {
			ruleLevel = false
			continue
		}
		affected[d.Rule] = true
	}
	t0 := a.tr.Now()
	sel := affected
	if !ruleLevel {
		sel = nil // unattributable divergence: rebuild everything
	}
	if err := a.m.RebuildRules(a.db, sel); err != nil {
		return fmt.Errorf("audit: rebuild: %w", err)
	}
	rep.Rebuilt = true

	// Reconcile the conflict set: phantoms out, missing instantiations in.
	cs := a.m.ConflictSet()
	var recon map[string]bool
	if ruleLevel {
		recon = affected
	}
	for _, r := range a.set.Rules {
		if recon != nil && !recon[r.Name] {
			continue
		}
		expected := map[conflict.Key]*conflict.Instantiation{}
		joiner.Enumerate(a.db, r, nil, a.stats, func(ids []relation.TupleID, tuples []relation.Tuple, _ rules.Bindings) {
			in := conflict.NewInstantiation(r, ids, tuples)
			if key := in.Key(); !cs.HasFired(key) {
				expected[key] = in
			}
		})
		name := r.Name
		cs.RemoveWhere(func(in *conflict.Instantiation) bool {
			return in.Rule.Name == name && expected[in.Key()] == nil
		})
		// Deterministic Seq assignment for the additions: rendered-key order.
		type keyed struct {
			key string
			in  *conflict.Instantiation
		}
		add := make([]keyed, 0, len(expected))
		for _, in := range expected {
			add = append(add, keyed{in.KeyString(), in})
		}
		sort.Slice(add, func(i, j int) bool { return add[i].key < add[j].key })
		for _, k := range add {
			cs.Add(k.in)
		}
	}

	rep.Repaired = len(rep.Divergences)
	a.stats.Add(metrics.AuditRepairs, int64(rep.Repaired))
	if a.tr.Enabled() {
		a.tr.Emit(trace.Event{
			Kind: trace.KindRepair, At: t0, Dur: a.tr.Now() - t0,
			CE: -1, Count: int64(rep.Repaired), Extra: rep.Matcher,
		})
	}
	return nil
}
