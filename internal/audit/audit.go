// Package audit implements online integrity auditing for the matchers.
// The paper treats rule maintenance as materialized-view maintenance
// (§2.3, §6), and the standard oracle for incremental view maintenance is
// recomputation from scratch: an audit builds a twin of the live matcher
// — the same algorithm, by name (internal/matchers) — over the live
// working memory, feeding it one insert batch per class as a restore
// does, and diffs the two rule by rule: the keys of the eligible
// instantiations, and the DumpDerived listings of the derived state
// beyond the conflict set (COND-relation patterns and their supporters,
// Rete memories, rule markers, the condition index). No matcher
// recomputes its own ground truth, so the check shares no code with the
// maintenance it checks beyond the algorithm's bulk insert path.
//
// The auditor runs online between firings, under the engine's
// maintenance lock, so an audit sees a quiescent, transaction-consistent
// snapshot. A full audit checks every rule and the structures shared
// between rules; the sampled mode checks a budgeted, rotating window of
// rules per run, building the twin over only those rules. Repair builds
// a fresh matcher over the live conflict set for the caller to install.
package audit

import (
	"fmt"
	"sort"

	"prodsys/internal/conflict"
	"prodsys/internal/joiner"
	"prodsys/internal/match"
	"prodsys/internal/matchers"
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
	// Fresh is the matcher the repair built over the live conflict set,
	// which the caller installs in place of the audited one; nil when no
	// repair ran.
	Fresh match.Matcher
}

// Clean reports whether the audit found no divergence.
func (r *Report) Clean() bool { return len(r.Divergences) == 0 }

// Options tunes one audit run.
type Options struct {
	// MaxRules, when positive and smaller than the rule count, switches
	// to sampled mode: each run checks at most this many rules, rotating
	// through the rule set across runs.
	MaxRules int
	// Repair reconciles the conflict set and builds a fresh matcher
	// (Report.Fresh) when divergences are found, so an immediate
	// re-audit of the fresh matcher comes back clean.
	Repair bool
}

// Auditor checks a live matcher against a from-scratch twin. It keeps
// the rotating cursor of the sampled mode, so reuse one Auditor across
// runs. Not safe for concurrent use; run it under the engine's
// maintenance lock.
type Auditor struct {
	set    *rules.Set
	db     *relation.DB
	stats  *metrics.Set
	tr     *trace.Tracer
	cursor int
}

// New builds an auditor over a rule set and the WM catalog its matchers
// maintain. The twins' work counts in stats, which may be nil.
func New(set *rules.Set, db *relation.DB, stats *metrics.Set) *Auditor {
	return &Auditor{set: set, db: db, stats: stats}
}

// SetTracer wires the execution tracer; audit runs, divergences, and
// repairs are emitted as events. A nil tracer disables emission.
func (a *Auditor) SetTracer(tr *trace.Tracer) { a.tr = tr }

// Gate runs a full, repair-free audit of live as a go/no-go check — the
// promotion gate of WAL log-shipping failover: a replica may only turn
// primary if its derived state matches a from-scratch build exactly. The
// report is returned either way; the error is non-nil when the gate
// fails, naming the divergence count and the first instance.
func (a *Auditor) Gate(live match.Matcher) (*Report, error) {
	rep, err := a.Run(live, Options{})
	if err != nil {
		return rep, fmt.Errorf("audit gate: %w", err)
	}
	if !rep.Clean() {
		return rep, fmt.Errorf("audit gate: %d divergences, first: %s",
			len(rep.Divergences), rep.Divergences[0].String())
	}
	return rep, nil
}

// Run performs one audit of live. The returned report is always
// non-nil; the error reports a twin or fresh matcher that could not be
// built.
func (a *Auditor) Run(live match.Matcher, opts Options) (*Report, error) {
	rep := &Report{Matcher: live.Name()}
	set := a.set
	var only map[string]bool
	if all := a.set.Rules; opts.MaxRules > 0 && opts.MaxRules < len(all) {
		rep.Sampled = true
		only = make(map[string]bool, opts.MaxRules)
		for i := 0; i < opts.MaxRules; i++ {
			only[all[(a.cursor+i)%len(all)].Name] = true
		}
		a.cursor = (a.cursor + opts.MaxRules) % len(all)
		set = a.set.Subset(only)
	}
	rep.RulesChecked = len(set.Rules)

	t0 := a.tr.Now()
	cs := live.ConflictSet()
	twin, err := a.build(live.Name(), set, cs.Scratch())
	if err != nil {
		return rep, fmt.Errorf("audit: twin: %w", err)
	}
	missing, phantom := diffConflict(rep, cs, twin.ConflictSet(), only)
	diffDerived(rep, live, twin, only)
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
	a.stats.Add(metrics.AuditRulesChecked, int64(rep.RulesChecked))
	a.stats.Add(metrics.AuditDivergences, int64(len(rep.Divergences)))
	if a.tr.Enabled() {
		a.tr.Emit(trace.Event{
			Kind: trace.KindAuditRun, At: t0, Dur: a.tr.Now() - t0,
			CE: -1, Count: int64(len(rep.Divergences)), Extra: rep.Matcher,
		})
		for _, d := range rep.Divergences {
			a.tr.Emit(trace.Event{
				Kind: trace.KindAuditDivergence, At: a.tr.Now(),
				Rule: d.Rule, CE: -1, Extra: d.String(),
			})
		}
	}

	if !opts.Repair || rep.Clean() {
		return rep, nil
	}
	return rep, a.repair(rep, live, missing, phantom)
}

// build makes the named matcher over set and the live WM, maintaining
// cs, and feeds it every WM tuple of the classes set's rules test: one
// insert batch per class, in class order — the path a restore takes. Its
// joins run under a fresh planner, and its work counts in the auditor's
// counters.
func (a *Auditor) build(name string, set *rules.Set, cs *conflict.Set) (match.Matcher, error) {
	m, err := matchers.New(name, set, a.db, cs, a.stats)
	if err != nil {
		return nil, err
	}
	m.SetPlanner(joiner.NewPlanner(a.db, a.stats))
	d := relation.NewDelta()
	for class := range set.ByClass {
		if rel, ok := a.db.Get(class); ok {
			rel.Scan(func(id relation.TupleID, t relation.Tuple) bool {
				d.AddInsert(class, id, t)
				return true
			})
		}
	}
	_, err = match.ApplyDelta(m, d)
	return m, err
}

// diffConflict compares, rule by rule, the eligible (unfired)
// instantiations of the live conflict set with the twin's, and returns
// the twin's instantiations the live set lacks and the keys of those it
// holds beyond them.
func diffConflict(rep *Report, live, twin *conflict.Set, only map[string]bool) (missing []*conflict.Instantiation, phantom []conflict.Key) {
	want := map[conflict.Key]*conflict.Instantiation{}
	for _, in := range twin.SelectAll() {
		want[in.Key()] = in
	}
	for _, in := range live.SelectAll() {
		if only != nil && !only[in.Rule.Name] {
			continue
		}
		key := in.Key()
		if want[key] != nil {
			delete(want, key)
			continue
		}
		phantom = append(phantom, key)
		rep.Divergences = append(rep.Divergences, match.Divergence{Class: match.DivConflictPhantom, Rule: in.Rule.Name,
			Key: in.KeyString(), Expected: "absent", Actual: "instantiation in conflict set"})
	}
	for _, in := range want {
		missing = append(missing, in)
		rep.Divergences = append(rep.Divergences, match.Divergence{Class: match.DivConflictMissing, Rule: in.Rule.Name,
			Key: in.KeyString(), Expected: "instantiation in conflict set", Actual: "absent"})
	}
	return missing, phantom
}

// diffDerived compares the live matcher's DumpDerived listing with the
// twin's, as multisets of (rule, line).
func diffDerived(rep *Report, live, twin match.Matcher, only map[string]bool) {
	type entry struct{ rule, line string }
	counts := map[entry][2]int{} // twin's, live's
	count := func(side int) func(rule, line string) {
		return func(rule, line string) {
			e := entry{rule, line}
			c := counts[e]
			c[side]++
			counts[e] = c
		}
	}
	twin.DumpDerived(only, count(0))
	live.DumpDerived(only, count(1))
	for e, c := range counts {
		if c[0] == c[1] {
			continue
		}
		class := match.DivDerivedMissing
		if c[1] > c[0] {
			class = match.DivDerivedPhantom
		}
		rep.Divergences = append(rep.Divergences, match.Divergence{Class: class, Rule: e.rule, Key: e.line,
			Expected: fmt.Sprintf("%d in the from-scratch twin", c[0]), Actual: fmt.Sprintf("%d live", c[1])})
	}
}

// repair reconciles the live conflict set with the twin's — phantoms
// out, missing instantiations in, in key order; survivors keep their Seq
// and refraction marks stay — then builds a fresh matcher of every rule
// over it into rep.Fresh. The fresh matcher re-derives everything the WM
// supports: every eligible instantiation of the audited rules is already
// present, and a fired one it re-derives re-enters as a refracted entry,
// as after a restore.
func (a *Auditor) repair(rep *Report, live match.Matcher, missing []*conflict.Instantiation, phantom []conflict.Key) error {
	t0 := a.tr.Now()
	cs := live.ConflictSet()
	for _, key := range phantom {
		cs.Remove(key)
	}
	add := make([]*conflict.Instantiation, len(missing))
	for i, in := range missing {
		add[i] = conflict.NewInstantiation(in.Rule, in.TupleIDs, in.Tuples)
	}
	sort.Slice(add, func(i, j int) bool { return add[i].KeyString() < add[j].KeyString() })
	cs.AddAll(add)

	fresh, err := a.build(live.Name(), a.set, cs)
	if err != nil {
		return fmt.Errorf("audit: rebuild: %w", err)
	}
	rep.Fresh = fresh
	rep.Repaired = len(rep.Divergences)
	a.stats.Inc(metrics.MatcherRebuilds)
	a.stats.Add(metrics.AuditRepairs, int64(rep.Repaired))
	if a.tr.Enabled() {
		a.tr.Emit(trace.Event{
			Kind: trace.KindRepair, At: t0, Dur: a.tr.Now() - t0,
			CE: -1, Count: int64(rep.Repaired), Extra: rep.Matcher,
		})
	}
	return nil
}
