package recheck_test

import (
	"testing"

	"prodsys/internal/audit"
	"prodsys/internal/audit/audittest"
	"prodsys/internal/conflict"
	"prodsys/internal/match"
	"prodsys/internal/metrics"
	"prodsys/internal/recheck"
	"prodsys/internal/relation"
	"prodsys/internal/rules"
)

// TestAuditCatchesCorruption: a damaged Mark counter (core), a lost
// marker (marker) or a lost index entry (ptree) is a derived-state
// divergence, and the repair's fresh matcher audits clean.
func TestAuditCatchesCorruption(t *testing.T) {
	for name, build := range map[string]func(*rules.Set, *relation.DB, *conflict.Set, *metrics.Set) *recheck.Matcher{
		"core": recheck.NewCore, "marker": recheck.NewMarker, "ptree": recheck.NewPTree,
	} {
		t.Run(name, func(t *testing.T) { audittest.DetectAndRepair(t, build, recheck.CorruptDerived) })
	}
}

// TestIndexAuditFindsMissingAndPhantom swaps in an index built from
// another rule set: against the from-scratch twin, each of the system's
// condition elements is missing, the stranger's is a phantom, and a
// listing restricted to one rule lists only its entries.
func TestIndexAuditFindsMissingAndPhantom(t *testing.T) {
	set, _, err := rules.CompileSource(`
(literalize Emp name age salary dno)
(literalize Dept dno dname)
(p Old    (Emp ^age > 55) --> (halt))
(p Young  (Emp ^age < 30) --> (halt))
(p Banded (Emp ^age > 40 ^age < 50 ^salary > 1000) --> (halt))
(p Toy    (Emp ^dno <d>) (Dept ^dno <d> ^dname Toy) --> (remove 1))
(p NoDept (Emp ^dno <d>) - (Dept ^dno <d>) --> (halt))`)
	if err != nil {
		t.Fatal(err)
	}
	foreign, _, err := rules.CompileSource("(literalize Dept dno dname)\n(p Stranger (Dept ^dname Shoe) --> (halt))")
	if err != nil {
		t.Fatal(err)
	}
	stats := &metrics.Set{}
	db := relation.NewDB(stats)
	if err := rules.BuildDB(set, db); err != nil {
		t.Fatal(err)
	}
	m := recheck.NewPTree(set, db, conflict.NewSet(set, stats), stats)
	recheck.IndexRules(m, foreign)

	rep, err := audit.New(set, db, stats).Run(m, audit.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	for _, d := range rep.Divergences {
		got[d.Class+" "+d.Rule]++
	}
	if got[match.DivDerivedPhantom+" Stranger"] != 1 || got[match.DivDerivedMissing+" Toy"] != 2 || got[match.DivDerivedMissing+" Old"] != 1 {
		t.Fatalf("audit = %v", got)
	}
	var lines []string
	m.DumpDerived(map[string]bool{"Stranger": true}, func(rule, line string) { lines = append(lines, rule+" "+line) })
	if len(lines) != 1 {
		t.Fatalf("listing of Stranger only = %v", lines)
	}
}
