package audit_test

import (
	"strings"
	"testing"

	"prodsys/internal/audit"
	"prodsys/internal/conflict"
	"prodsys/internal/match"
	"prodsys/internal/matchers"
	"prodsys/internal/metrics"
	"prodsys/internal/relation"
	"prodsys/internal/rules"
	"prodsys/internal/workload"
)

// buildMatcher compiles the payroll rule set and returns the stack the
// auditor needs, with the named matcher.
func buildMatcher(t *testing.T, name string) (*rules.Set, *relation.DB, match.Matcher, *metrics.Set) {
	t.Helper()
	set, _, err := rules.CompileSource(workload.PayrollRules(6, false))
	if err != nil {
		t.Fatal(err)
	}
	stats := &metrics.Set{}
	db := relation.NewDB(stats)
	if err := rules.BuildDB(set, db); err != nil {
		t.Fatal(err)
	}
	m, err := matchers.New(name, set, db, conflict.NewSet(set, stats), stats)
	if err != nil {
		t.Fatal(err)
	}
	return set, db, m, stats
}

// runWorkload streams ops through the relations and the (wrapped)
// matcher's maintenance, resolving deletes against live tuples.
func runWorkload(t *testing.T, db *relation.DB, m match.Matcher, ops []workload.Op) {
	t.Helper()
	live := map[string][]relation.TupleID{}
	for _, op := range ops {
		rel := db.MustGet(op.Class)
		if op.Delete {
			ids := live[op.Class]
			if len(ids) == 0 {
				continue
			}
			id := ids[len(ids)-1]
			live[op.Class] = ids[:len(ids)-1]
			tup, err := rel.Delete(id)
			if err != nil {
				t.Fatalf("delete %s %d: %v", op.Class, id, err)
			}
			if err := m.DeleteBatch(op.Class, []relation.DeltaEntry{{ID: id, Tuple: tup}}); err != nil {
				t.Fatalf("matcher delete: %v", err)
			}
			continue
		}
		id, err := rel.Insert(op.Tuple)
		if err != nil {
			t.Fatalf("insert %s: %v", op.Class, err)
		}
		stored, _ := rel.Get(id)
		if err := m.InsertBatch(op.Class, []relation.DeltaEntry{{ID: id, Tuple: stored}}); err != nil {
			t.Fatalf("matcher insert: %v", err)
		}
		live[op.Class] = append(live[op.Class], id)
	}
}

// TestFaultInjectorMidWorkload drives the injection wrapper over every
// matcher, dropping an eligible instantiation every 40th maintenance
// call mid-workload, then requires the auditor to detect live damage and
// repair it so a re-audit of the installed fresh matcher is clean.
func TestFaultInjectorMidWorkload(t *testing.T) {
	for _, name := range matchers.Names() {
		t.Run(name, func(t *testing.T) {
			set, db, inner, stats := buildMatcher(t, name)
			fi := audit.NewFaultInjector(inner, 17, 40)
			runWorkload(t, db, fi, workload.PayrollOps(23, 300, 0.25))
			if len(fi.Injected()) == 0 {
				t.Fatal("workload injected no corruption")
			}
			// Later maintenance can coincidentally overwrite earlier
			// damage; one final on-demand corruption guarantees live
			// damage for the detection assertion.
			if desc := fi.Corrupt(); desc == "" {
				t.Fatal("final corruption found nothing to corrupt")
			}

			aud := audit.New(set, db, stats)
			rep, err := aud.Run(fi, audit.Options{Repair: true})
			if err != nil {
				t.Fatalf("audit: %v", err)
			}
			if rep.Clean() {
				t.Fatalf("audit missed injected corruption: %v", fi.Injected())
			}
			if rep.Repaired == 0 || rep.Fresh == nil {
				t.Fatal("audit repaired nothing")
			}
			fi.Matcher = rep.Fresh
			again, err := aud.Run(fi, audit.Options{})
			if err != nil {
				t.Fatalf("re-audit: %v", err)
			}
			if !again.Clean() {
				var lines []string
				for _, d := range again.Divergences {
					lines = append(lines, d.String())
				}
				t.Fatalf("re-audit after repair still divergent:\n%s", strings.Join(lines, "\n"))
			}
			if stats.Get(metrics.AuditDivergences) == 0 || stats.Get(metrics.AuditRepairs) == 0 {
				t.Fatal("integrity counters not incremented")
			}
		})
	}
}

// TestSampledCursorRotates: with MaxRules 2 over 6 rules, three
// successive runs cover the whole set (the cursor wraps), and every run
// reports the sampled flag with the window size.
func TestSampledCursorRotates(t *testing.T) {
	set, db, m, stats := buildMatcher(t, "core")
	runWorkload(t, db, m, workload.PayrollOps(5, 120, 0.2))
	aud := audit.New(set, db, stats)
	for run := 0; run < 3; run++ {
		rep, err := aud.Run(m, audit.Options{MaxRules: 2})
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if !rep.Sampled || rep.RulesChecked != 2 {
			t.Fatalf("run %d: sampled=%v rules=%d", run, rep.Sampled, rep.RulesChecked)
		}
	}
	if got := stats.Get(metrics.AuditRulesChecked); got != 6 {
		t.Fatalf("audit_rules_checked = %d, want 6 after a full rotation", got)
	}
}
