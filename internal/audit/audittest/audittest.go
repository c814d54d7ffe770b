// Package audittest runs the integrity audit against a matcher package's
// own corruption hook: the detection-and-repair check each matcher
// package's tests make, with a hook compiled only into those tests.
package audittest

import (
	"math/rand"
	"strings"
	"testing"

	"prodsys/internal/audit"
	"prodsys/internal/conflict"
	"prodsys/internal/match"
	"prodsys/internal/metrics"
	"prodsys/internal/relation"
	"prodsys/internal/rules"
	"prodsys/internal/workload"
)

// DetectAndRepair builds a matcher with build over a 6-rule payroll
// program for each of five seeds, drives a seeded workload through it,
// marks two eligible instantiations fired and damages its derived state
// with corrupt. The audit must find a derived-state divergence and
// repair it: the fresh matcher re-audits clean and the refraction marks
// are kept.
func DetectAndRepair[M match.Matcher](t *testing.T, build func(*rules.Set, *relation.DB, *conflict.Set, *metrics.Set) M, corrupt func(M, *rand.Rand) string) {
	t.Helper()
	for seed := int64(1); seed <= 5; seed++ {
		set, _, err := rules.CompileSource(workload.PayrollRules(6, false))
		if err != nil {
			t.Fatal(err)
		}
		stats := &metrics.Set{}
		db := relation.NewDB(stats)
		if err := rules.BuildDB(set, db); err != nil {
			t.Fatal(err)
		}
		m := build(set, db, conflict.NewSet(set, stats), stats)
		drive(t, db, m, workload.PayrollOps(seed, 250, 0.25))
		cs := m.ConflictSet()
		for _, in := range cs.SelectAll()[:2] {
			cs.MarkFired(in.Key())
		}
		fired := cs.FiredLen()

		desc := corrupt(m, rand.New(rand.NewSource(seed)))
		if desc == "" {
			t.Fatalf("seed %d: nothing to corrupt", seed)
		}
		aud := audit.New(set, db, stats)
		rep, err := aud.Run(m, audit.Options{Repair: true})
		if err != nil {
			t.Fatalf("seed %d: audit: %v", seed, err)
		}
		derived := false
		for _, d := range rep.Divergences {
			derived = derived || strings.HasPrefix(d.Class, "derived-")
		}
		if !derived {
			t.Fatalf("seed %d: audit missed %s: %v", seed, desc, rep.Divergences)
		}
		if rep.Fresh == nil || rep.Repaired != len(rep.Divergences) {
			t.Fatalf("seed %d: repair built no matcher or repaired %d of %d", seed, rep.Repaired, len(rep.Divergences))
		}
		again, err := aud.Run(rep.Fresh, audit.Options{})
		if err != nil || !again.Clean() {
			t.Fatalf("seed %d: re-audit after repairing %s: %v %v", seed, desc, err, again.Divergences)
		}
		if cs.FiredLen() != fired {
			t.Fatalf("seed %d: repair changed the refraction marks: %d, want %d", seed, cs.FiredLen(), fired)
		}
	}
}

// drive stores each op in its WM relation and hands the matcher a
// one-change delta; a delete removes the newest live tuple of its class.
func drive(t *testing.T, db *relation.DB, m match.Matcher, ops []workload.Op) {
	t.Helper()
	live := map[string][]relation.TupleID{}
	for _, op := range ops {
		rel := db.MustGet(op.Class)
		d := relation.NewDelta()
		if op.Delete {
			ids := live[op.Class]
			if len(ids) == 0 {
				continue
			}
			id := ids[len(ids)-1]
			live[op.Class] = ids[:len(ids)-1]
			tup, err := rel.Delete(id)
			if err != nil {
				t.Fatal(err)
			}
			d.AddDelete(op.Class, id, tup)
		} else {
			id, err := rel.Insert(op.Tuple)
			if err != nil {
				t.Fatal(err)
			}
			tup, _ := rel.Get(id)
			d.AddInsert(op.Class, id, tup)
			live[op.Class] = append(live[op.Class], id)
		}
		if _, err := match.ApplyDelta(m, d); err != nil {
			t.Fatal(err)
		}
	}
}
