package recheck

import (
	"fmt"
	"testing"

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
