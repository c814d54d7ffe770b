package recheck

import (
	"fmt"
	"testing"

	"prodsys/internal/match"
	"prodsys/internal/ptree"
	"prodsys/internal/rules"
	"prodsys/internal/value"
)

const ptreeSrc = `
(literalize Emp name age salary dno)
(literalize Dept dno dname)
(p Old    (Emp ^age > 55) --> (halt))
(p Young  (Emp ^age < 30) --> (halt))
(p Banded (Emp ^age > 40 ^age < 50 ^salary > 1000) --> (halt))
(p Toy    (Emp ^dno <d>) (Dept ^dno <d> ^dname Toy) --> (remove 1))
(p NoDept (Emp ^dno <d>) - (Dept ^dno <d>) --> (halt))
`

func TestMatcherBehavesLikeRequery(t *testing.T) {
	f := setup(t, ptreeSrc, NewPTree)
	m, cs := f.m, f.cs
	if m.Name() != "ptree" || m.ConflictSet() != cs || m.f.(*rtree).ix == nil {
		t.Fatal("accessors")
	}
	id := f.insert(t, "Emp", value.OfSym("Ann"), value.OfInt(28), value.OfInt(500), value.OfInt(7))
	// Young fires, NoDept fires.
	keys := cs.Keys()
	if len(keys) != 2 {
		t.Fatalf("conflict set = %v", keys)
	}
	did := f.insert(t, "Dept", value.OfInt(7), value.OfSym("Toy"))
	// Toy fires; NoDept retracted.
	keys = cs.Keys()
	want := map[string]bool{"Young|1": true, fmt.Sprintf("Toy|%d|%d", id, did): true}
	if len(keys) != 2 || !want[keys[0]] || !want[keys[1]] {
		t.Fatalf("conflict set = %v", keys)
	}
	// Delete the dept: NoDept re-derives.
	f.remove(t, "Dept", did)
	keys = cs.Keys()
	if len(keys) != 2 {
		t.Fatalf("after dept delete = %v", keys)
	}
}

// TestIndexAuditFindsMissingAndPhantom swaps in an index built from
// another rule set: each of the system's condition elements is missing,
// the stranger's is a phantom, and only restricts the report.
func TestIndexAuditFindsMissingAndPhantom(t *testing.T) {
	f := setup(t, ptreeSrc, NewPTree)
	foreign, _, err := rules.CompileSource("(literalize Dept dno dname)\n(p Stranger (Dept ^dname Shoe) --> (halt))")
	if err != nil {
		t.Fatal(err)
	}
	f.m.f.(*rtree).ix = ptree.NewIndex(foreign, f.st)
	audit := func(only map[string]bool) map[string]int {
		got := map[string]int{}
		f.m.AuditDerived(f.db, only, func(d match.Divergence) { got[d.Class+" "+d.Rule]++ })
		return got
	}
	if got := audit(nil); got[match.DivIndexPhantom+" Stranger"] != 1 || got[match.DivIndexMissing+" Toy"] != 2 || got[match.DivIndexMissing+" Old"] != 1 {
		t.Fatalf("audit = %v", got)
	}
	if got := audit(map[string]bool{"Stranger": true}); len(got) != 1 {
		t.Fatalf("audit only Stranger = %v", got)
	}
}
