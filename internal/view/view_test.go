package view

import (
	"strings"
	"testing"

	"prodsys/internal/metrics"
	"prodsys/internal/relation"
	"prodsys/internal/rules"
	"prodsys/internal/value"
)

const viewSrc = `
(literalize Emp name salary dno)
(literalize Dept dno dname)

; employees of the Toy department, with their salaries
(p ToyStaff
    (Emp ^name <n> ^salary <s> ^dno <d>)
    (Dept ^dno <d> ^dname Toy)
  -->)

; departments with no employees at all
(p EmptyDept
    (Dept ^dno <d> ^dname <m>)
    - (Emp ^dno <d>)
  -->)
`

type fixture struct {
	mgr *Manager
	db  *relation.DB
}

func setup(t *testing.T) *fixture {
	t.Helper()
	set, _, err := rules.CompileSource(viewSrc)
	if err != nil {
		t.Fatal(err)
	}
	st := &metrics.Set{}
	db := relation.NewDB(st)
	if err := rules.BuildDB(set, db); err != nil {
		t.Fatal(err)
	}
	mgr, err := NewManager(viewSrc, db, st)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{mgr: mgr, db: db}
}

func (f *fixture) insert(t *testing.T, class string, vals ...value.V) relation.TupleID {
	t.Helper()
	rel := f.db.MustGet(class)
	id, err := rel.Insert(relation.Tuple(vals))
	if err != nil {
		t.Fatal(err)
	}
	tup, _ := rel.Get(id)
	d := relation.NewDelta()
	d.AddInsert(class, id, tup)
	if err := f.mgr.Apply(d); err != nil {
		t.Fatal(err)
	}
	return id
}

func (f *fixture) remove(t *testing.T, class string, id relation.TupleID) {
	t.Helper()
	tup, err := f.db.MustGet(class).Delete(id)
	if err != nil {
		t.Fatal(err)
	}
	d := relation.NewDelta()
	d.AddDelete(class, id, tup)
	if err := f.mgr.Apply(d); err != nil {
		t.Fatal(err)
	}
}

func TestJoinViewMaintenance(t *testing.T) {
	f := setup(t)
	v, ok := f.mgr.View("ToyStaff")
	if !ok {
		t.Fatal("ToyStaff view missing")
	}
	if got := v.Columns; len(got) != 3 || got[0] != "d" || got[1] != "n" || got[2] != "s" {
		t.Fatalf("columns = %v", got)
	}
	f.insert(t, "Emp", value.OfSym("Ann"), value.OfInt(500), value.OfInt(7))
	if v.Len() != 0 {
		t.Fatalf("no dept yet: %v", v.Rows())
	}
	d := f.insert(t, "Dept", value.OfInt(7), value.OfSym("Toy"))
	if v.Len() != 1 {
		t.Fatalf("Ann should appear: %v", v.Rows())
	}
	if !strings.Contains(v.Rows()[0], "n=Ann") {
		t.Fatalf("row content: %v", v.Rows())
	}
	f.insert(t, "Emp", value.OfSym("Bob"), value.OfInt(900), value.OfInt(7))
	if v.Len() != 2 {
		t.Fatalf("Bob should appear: %v", v.Rows())
	}
	// Delete the department: the view empties (delete triggers).
	f.remove(t, "Dept", d)
	if v.Len() != 0 {
		t.Fatalf("view should empty: %v", v.Rows())
	}
}

func TestNegationView(t *testing.T) {
	f := setup(t)
	v, _ := f.mgr.View("EmptyDept")
	f.insert(t, "Dept", value.OfInt(9), value.OfSym("Shoe"))
	if v.Len() != 1 {
		t.Fatalf("Shoe is empty: %v", v.Rows())
	}
	e := f.insert(t, "Emp", value.OfSym("Cat"), value.OfInt(100), value.OfInt(9))
	if v.Len() != 0 {
		t.Fatalf("Shoe now staffed: %v", v.Rows())
	}
	f.remove(t, "Emp", e)
	if v.Len() != 1 {
		t.Fatalf("Shoe empty again: %v", v.Rows())
	}
}

func TestDuplicateDerivationCounts(t *testing.T) {
	// Two Toy departments with the same dno? Different dnos, same
	// employee row only if all projected columns match; use two identical
	// Dept tuples to create two derivations of the same row.
	f := setup(t)
	v, _ := f.mgr.View("ToyStaff")
	f.insert(t, "Emp", value.OfSym("Ann"), value.OfInt(500), value.OfInt(7))
	f.insert(t, "Dept", value.OfInt(7), value.OfSym("Toy"))
	d2 := f.insert(t, "Dept", value.OfInt(7), value.OfSym("Toy"))
	if v.Len() != 1 {
		t.Fatalf("rows = %v", v.Rows())
	}
	if !strings.Contains(v.Rows()[0], "×2") {
		t.Fatalf("derivation count should be 2: %v", v.Rows())
	}
	// Removing one duplicate keeps the row.
	f.remove(t, "Dept", d2)
	if v.Len() != 1 || !strings.Contains(v.Rows()[0], "×1") {
		t.Fatalf("after one removal: %v", v.Rows())
	}
}

func TestManagerValidation(t *testing.T) {
	db := relation.NewDB(nil)
	if _, err := NewManager(`(literalize A x) (p V (A ^x <v>) --> (halt))`, db, nil); err == nil {
		t.Error("non-empty RHS should be rejected")
	}
	if _, err := NewManager(`(p V (Ghost ^x 1) -->)`, db, nil); err == nil {
		t.Error("bad source should be rejected")
	}
}

func TestUntrackedClassIgnored(t *testing.T) {
	f := setup(t)
	d := relation.NewDelta()
	d.AddInsert("Ghost", 1, relation.Tuple{value.OfInt(1)})
	d.AddDelete("Ghost", 2, relation.Tuple{value.OfInt(2)})
	if err := f.mgr.Apply(d); err != nil {
		t.Fatal(err)
	}
}

func TestNamesAndContains(t *testing.T) {
	f := setup(t)
	names := f.mgr.Names()
	if len(names) != 2 || names[0] != "EmptyDept" || names[1] != "ToyStaff" {
		t.Fatalf("Names = %v", names)
	}
	f.insert(t, "Dept", value.OfInt(9), value.OfSym("Shoe"))
	v, _ := f.mgr.View("EmptyDept")
	if !v.Contains("d=9", "m=Shoe") {
		t.Fatalf("Contains failed: %v", v.Rows())
	}
	if v.Contains("d=8", "m=Shoe") {
		t.Fatal("Contains false positive")
	}
	if _, ok := f.mgr.View("Nope"); ok {
		t.Fatal("unknown view")
	}
}
