package prodsys

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"prodsys/internal/engine"
	"prodsys/internal/metrics"
	"prodsys/internal/relation"
	"prodsys/internal/workload"
)

// applyWorkload drives a stream of workload operations through the
// engine, resolving each delete against a live tuple of its class the
// way the experiment harness does.
func applyWorkload(t *testing.T, sys *System, ops []workload.Op) {
	t.Helper()
	live := map[string][]relation.TupleID{}
	for _, op := range ops {
		if op.Delete {
			ids := live[op.Class]
			if len(ids) == 0 {
				continue
			}
			id := ids[len(ids)-1]
			live[op.Class] = ids[:len(ids)-1]
			if err := sys.eng.Retract(op.Class, id); err != nil {
				t.Fatalf("retract %s %d: %v", op.Class, id, err)
			}
			continue
		}
		id, err := sys.eng.Assert(op.Class, op.Tuple)
		if err != nil {
			t.Fatalf("assert %s: %v", op.Class, err)
		}
		live[op.Class] = append(live[op.Class], id)
	}
}

// auditSystem builds a system on the payroll workload with derived state
// worth auditing: a populated WM and an unfired conflict set.
func auditSystem(t *testing.T, m Matcher, rules int, seed int64) *System {
	t.Helper()
	sys, err := Load(workload.PayrollRules(rules, false), Options{Matcher: m, Out: discard{}})
	if err != nil {
		t.Fatal(err)
	}
	applyWorkload(t, sys, workload.PayrollOps(seed, 250, 0.25))
	return sys
}

// TestAuditCleanAfterWorkload uses the auditor as an oracle: after a
// randomized insert/delete workload (and a consuming run exercising
// refraction), every matcher's derived state must agree with the ground
// truth recomputed from working memory.
func TestAuditCleanAfterWorkload(t *testing.T) {
	for _, c := range MatcherCases() {
		t.Run(c.Name, func(t *testing.T) {
			sys, err := Load(workload.PayrollRules(8, true), Options{Matcher: c.Matcher, Out: discard{}})
			if err != nil {
				t.Fatal(err)
			}
			applyWorkload(t, sys, workload.PayrollOps(11, 250, 0.25))
			if _, err := sys.Run(); err != nil {
				t.Fatalf("run: %v", err)
			}
			applyWorkload(t, sys, workload.PayrollOps(13, 100, 0.4))
			rep, err := sys.Audit(AuditOptions{})
			if err != nil {
				t.Fatalf("audit: %v", err)
			}
			if !rep.Clean() {
				var lines []string
				for _, d := range rep.Divergences {
					lines = append(lines, d.String())
				}
				t.Fatalf("audit found %d divergences:\n%s", len(rep.Divergences), strings.Join(lines, "\n"))
			}
			if rep.Sampled || rep.RulesChecked != 8 {
				t.Fatalf("full audit: sampled=%v rules=%d, want full over 8", rep.Sampled, rep.RulesChecked)
			}
			if sys.Metrics().Integrity.AuditRuns != 1 {
				t.Fatalf("audit_runs = %d, want 1", sys.Metrics().Integrity.AuditRuns)
			}
		})
	}
}

// TestAuditDetectsAndRepairsCorruption seeds corruption into each
// matcher's derived state and requires 100% detection, successful
// repair, and a clean immediate re-audit.
func TestAuditDetectsAndRepairsCorruption(t *testing.T) {
	for _, c := range MatcherCases() {
		for seed := int64(1); seed <= 5; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", c.Name, seed), func(t *testing.T) {
				sys := auditSystem(t, c.Matcher, 6, seed)
				cs := sys.eng.ConflictSet()
				for _, in := range cs.SelectAll()[:2] {
					cs.MarkFired(in.Key())
				}
				fired := cs.FiredLen()
				desc := sys.InjectCorruption(seed)
				if desc == "" {
					t.Fatal("InjectCorruption found nothing to corrupt")
				}
				rep, err := sys.Audit(AuditOptions{Repair: true})
				if err != nil {
					t.Fatalf("audit: %v", err)
				}
				if rep.Clean() {
					t.Fatalf("audit missed seeded corruption: %s", desc)
				}
				if rep.Repaired == 0 {
					t.Fatalf("audit repaired nothing for: %s", desc)
				}
				again, err := sys.Audit(AuditOptions{})
				if err != nil {
					t.Fatalf("re-audit: %v", err)
				}
				if !again.Clean() {
					var lines []string
					for _, d := range again.Divergences {
						lines = append(lines, d.String())
					}
					t.Fatalf("re-audit after repair still divergent (%s):\n%s", desc, strings.Join(lines, "\n"))
				}
				st := sys.Metrics().Integrity
				if st.AuditDivergences == 0 || st.AuditRepairs == 0 {
					t.Fatalf("integrity counters: %+v", st)
				}
				if cs.FiredLen() != fired {
					t.Fatalf("repair changed the refraction marks: %d, want %d", cs.FiredLen(), fired)
				}
			})
		}
	}
}

// TestAuditSampledMode checks the budgeted online mode: each run audits
// at most MaxRules rules and successive runs rotate through the set.
func TestAuditSampledMode(t *testing.T) {
	sys := auditSystem(t, MatcherRete, 6, 7)
	for run := 0; run < 3; run++ {
		rep, err := sys.Audit(AuditOptions{MaxRules: 2})
		if err != nil {
			t.Fatalf("sampled audit %d: %v", run, err)
		}
		if !rep.Sampled || rep.RulesChecked != 2 {
			t.Fatalf("sampled audit %d: sampled=%v rules=%d, want 2-rule window", run, rep.Sampled, rep.RulesChecked)
		}
		if !rep.Clean() {
			t.Fatalf("sampled audit %d divergent: %v", run, rep.Divergences)
		}
	}
	// A full audit is not sampled.
	rep, err := sys.Audit(AuditOptions{})
	if err != nil || rep.Sampled || rep.RulesChecked != 6 {
		t.Fatalf("full audit after sampling: %+v, %v", rep, err)
	}
}

// TestSampledAuditStillDetects: the rotating window eventually reaches a
// corrupted rule even when each run checks a single rule.
func TestSampledAuditStillDetects(t *testing.T) {
	sys := auditSystem(t, MatcherCore, 4, 3)
	if desc := sys.InjectCorruption(3); desc == "" {
		t.Fatal("nothing to corrupt")
	}
	found := false
	for run := 0; run < 4; run++ {
		rep, err := sys.Audit(AuditOptions{MaxRules: 1, Repair: true})
		if err != nil {
			t.Fatalf("sampled audit %d: %v", run, err)
		}
		if !rep.Clean() {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("four 1-rule sampled audits over 4 rules never saw the corruption")
	}
}

// TestConcurrentAudits: concurrent audits share the System's auditor,
// whose sampled-mode cursor only the maintenance lock guards (run under
// -race).
func TestConcurrentAudits(t *testing.T) {
	sys := auditSystem(t, MatcherCore, 6, 5)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, err := sys.Audit(AuditOptions{MaxRules: 2})
			if err == nil && !rep.Clean() {
				err = fmt.Errorf("divergent: %v", rep.Divergences)
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := sys.Metrics().Integrity.AuditRulesChecked; got != 4 {
		t.Fatalf("audit_rules_checked = %d, want 4", got)
	}
}

// TestAuditWorkIsOneBuild pins the audit's cost on work counters under
// every matcher: a full audit joins and checks candidates exactly as
// often as one from-scratch build of the same WM (Load, then the WM as
// one batch), and a sampled audit of 5 of 50 rules does at most twice its
// share of the full audit's join work. The share is 5/50, except under
// Rete: beta-prefix sharing compiles the 50 payroll rules into 20
// distinct chains (rule i's is fixed by i mod 20), and the window's 5
// rules reach 5 of them, which the full audit shares among 50.
func TestAuditWorkIsOneBuild(t *testing.T) {
	work := func(d metrics.Snapshot) int64 {
		return d.Get(metrics.JoinsComputed) + d.Get(metrics.CandidateChecks) + d.Get(metrics.NodeActivations)
	}
	for _, c := range MatcherCases() {
		t.Run(c.Name, func(t *testing.T) {
			src := workload.PayrollRules(50, false)
			sys, err := Load(src, Options{Matcher: c.Matcher, Out: discard{}})
			if err != nil {
				t.Fatal(err)
			}
			applyWorkload(t, sys, workload.PayrollOps(3, 600, 0.25))

			fresh, err := Load(src, Options{Matcher: c.Matcher, Out: discard{}})
			if err != nil {
				t.Fatal(err)
			}
			var ops []engine.DeltaOp
			for _, class := range sys.Classes() {
				sys.db.MustGet(class).Scan(func(_ relation.TupleID, tup relation.Tuple) bool {
					ops = append(ops, engine.DeltaOp{Class: class, Tuple: tup})
					return true
				})
			}
			before := fresh.stats.Snapshot()
			if _, err := fresh.eng.ApplyDelta(ops); err != nil {
				t.Fatal(err)
			}
			build := fresh.stats.Snapshot().Diff(before)

			before = sys.stats.Snapshot()
			if rep, err := sys.Audit(AuditOptions{}); err != nil || !rep.Clean() {
				t.Fatalf("full audit: %v %v", err, rep)
			}
			full := sys.stats.Snapshot().Diff(before)
			for _, ctr := range []metrics.Counter{metrics.JoinsComputed, metrics.CandidateChecks} {
				if full.Get(ctr) != build.Get(ctr) {
					t.Errorf("full audit %s = %d, one from-scratch build %d", ctr, full.Get(ctr), build.Get(ctr))
				}
			}
			if work(full) == 0 {
				t.Fatal("the full audit did no join work; the comparison is empty")
			}

			before = sys.stats.Snapshot()
			if rep, err := sys.Audit(AuditOptions{MaxRules: 5}); err != nil || !rep.Clean() {
				t.Fatalf("sampled audit: %v %v", err, rep)
			}
			sampled := sys.stats.Snapshot().Diff(before)
			chains := int64(50)
			if c.Matcher == MatcherRete {
				chains = 20
			}
			t.Logf("join work: build %d, full audit %d, sampled audit %d", work(build), work(full), work(sampled))
			if got := work(sampled); got > 2*work(full)*5/chains {
				t.Errorf("sampled audit of 5 of 50 rules did %d join work, more than 2 × 5/%d of the full audit's %d", got, chains, work(full))
			}
		})
	}
}

const panicWALSrc = `
(literalize A v)
(literalize B v)

(p boom
    (A ^v <x>)
  -->
    (make B ^v <x>)
    (call explode))

(A 1)
`

// TestPanickedFiringNeverCommitsToWAL: a firing whose RHS panics is
// contained and rolled back, and the write-ahead log records no commit —
// recovery reproduces only the pre-panic state.
func TestPanickedFiringNeverCommitsToWAL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wm.wal")
	sys, err := Load(panicWALSrc, Options{Matcher: MatcherRete, WALPath: path, Out: discard{}})
	if err != nil {
		t.Fatal(err)
	}
	sys.RegisterFunc("explode", func([]string) error { panic("injected RHS panic") })
	res, err := sys.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Panics != 1 || res.Firings != 0 {
		t.Fatalf("result = %+v, want 1 contained panic and 0 firings", res)
	}
	if sys.Metrics().Integrity.PanicsContained != 1 {
		t.Fatalf("panics_contained = %d, want 1", sys.Metrics().Integrity.PanicsContained)
	}
	// The rolled-back make is gone; the engine keeps serving.
	if n := len(sys.WMClass("B")); n != 0 {
		t.Fatalf("%d B tuples after contained panic, want 0", n)
	}
	if _, err := sys.Assert("A", 2); err != nil {
		t.Fatalf("post-panic assert: %v", err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	sys2, err := Load(panicWALSrc, Options{Matcher: MatcherRete, WALPath: path, Out: discard{}})
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Close()
	if n := len(sys2.WMClass("B")); n != 0 {
		t.Fatalf("recovery produced %d B tuples from an uncommitted firing, want 0", n)
	}
	if n := len(sys2.WMClass("A")); n != 2 {
		t.Fatalf("recovered %d A tuples, want 2", n)
	}
}
