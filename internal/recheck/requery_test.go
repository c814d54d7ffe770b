package recheck

import (
	"reflect"
	"testing"

	"prodsys/internal/conflict"
	"prodsys/internal/metrics"
	"prodsys/internal/relation"
	"prodsys/internal/rules"
	"prodsys/internal/value"
)

const requerySrc = `
(literalize Emp name salary dno)
(literalize Dept dno dname)
(p Toy (Emp ^dno <d>) (Dept ^dno <d> ^dname Toy) --> (remove 1))
(p Lonely (Emp ^name <n> ^dno <d>) - (Dept ^dno <d>) --> (halt))
`

type fixture struct {
	m  *Matcher
	db *relation.DB
	cs *conflict.Set
	st *metrics.Set
}

// setup builds the matcher build returns over src's rules, with an
// empty WM.
func setup(t *testing.T, src string, build func(*rules.Set, *relation.DB, *conflict.Set, *metrics.Set) *Matcher) *fixture {
	t.Helper()
	set, _, err := rules.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	st := &metrics.Set{}
	db := relation.NewDB(st)
	if err := rules.BuildDB(set, db); err != nil {
		t.Fatal(err)
	}
	cs := conflict.NewSet(set, st)
	return &fixture{m: build(set, db, cs, st), db: db, cs: cs, st: st}
}

func (f *fixture) insert(t *testing.T, class string, vals ...value.V) relation.TupleID {
	t.Helper()
	rel := f.db.MustGet(class)
	id, err := rel.Insert(relation.Tuple(vals))
	if err != nil {
		t.Fatal(err)
	}
	tup, _ := rel.Get(id)
	if err := f.m.InsertBatch(class, []relation.DeltaEntry{{ID: id, Tuple: tup}}); err != nil {
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
	if err := f.m.DeleteBatch(class, []relation.DeltaEntry{{ID: id, Tuple: tup}}); err != nil {
		t.Fatal(err)
	}
}

func TestInsertDerives(t *testing.T) {
	f := setup(t, requerySrc, NewRequery)
	f.insert(t, "Emp", value.OfSym("Ann"), value.OfInt(100), value.OfInt(7))
	// Lonely fires (no dept 7), Toy does not.
	keys := f.cs.Keys()
	if len(keys) != 1 || keys[0] != "Lonely|1|0" {
		t.Fatalf("conflict set = %v", keys)
	}
	f.insert(t, "Dept", value.OfInt(7), value.OfSym("Toy"))
	keys = f.cs.Keys()
	// Toy now fires; Lonely retracted by the blocker.
	if len(keys) != 1 || keys[0] != "Toy|1|1" {
		t.Fatalf("conflict set = %v", keys)
	}
}

func TestDeleteRetractsAndUnblocks(t *testing.T) {
	f := setup(t, requerySrc, NewRequery)
	e := f.insert(t, "Emp", value.OfSym("Ann"), value.OfInt(100), value.OfInt(7))
	d := f.insert(t, "Dept", value.OfInt(7), value.OfSym("Toy"))
	f.remove(t, "Dept", d)
	keys := f.cs.Keys()
	if len(keys) != 1 || keys[0] != "Lonely|1|0" {
		t.Fatalf("unblock failed: %v", keys)
	}
	f.remove(t, "Emp", e)
	if f.cs.Len() != 0 {
		t.Fatalf("retract failed: %v", f.cs.Keys())
	}
}

func TestJoinRecomputationCounted(t *testing.T) {
	f := setup(t, requerySrc, NewRequery)
	before := f.st.Get(metrics.JoinsComputed)
	f.insert(t, "Emp", value.OfSym("Ann"), value.OfInt(100), value.OfInt(7))
	if f.st.Get(metrics.JoinsComputed) == before {
		t.Error("joins should be recomputed on insert")
	}
	if f.st.Get(metrics.PatternSearches) == 0 {
		t.Error("COND searches should be counted")
	}
}

func TestRederiveMatchesIncremental(t *testing.T) {
	f := setup(t, requerySrc, NewRequery)
	f.insert(t, "Emp", value.OfSym("Ann"), value.OfInt(100), value.OfInt(7))
	f.insert(t, "Emp", value.OfSym("Bob"), value.OfInt(200), value.OfInt(8))
	f.insert(t, "Dept", value.OfInt(7), value.OfSym("Toy"))
	incremental := f.cs.Keys()
	rederiveAll(f.m)
	fromScratch := f.cs.Keys()
	if !reflect.DeepEqual(incremental, fromScratch) {
		t.Fatalf("incremental %v vs scratch %v", incremental, fromScratch)
	}
}

// rederiveAll rebuilds the whole conflict set from the current WM
// contents: the declarative ground truth.
func rederiveAll(m *Matcher) {
	m.cs.RemoveWhere(func(*conflict.Instantiation) bool { return true })
	for _, r := range m.set.Rules {
		m.rederive(r, -1, "")
	}
}

func TestNameAndString(t *testing.T) {
	f := setup(t, requerySrc, NewRequery)
	if f.m.Name() != "requery" {
		t.Errorf("Name = %q", f.m.Name())
	}
	if f.m.String() != "requery(2 rules)" {
		t.Errorf("String = %q", f.m.String())
	}
	if f.m.ConflictSet() != f.cs {
		t.Error("ConflictSet accessor")
	}
}

func TestNoStorageGrowth(t *testing.T) {
	// The simplified algorithm stores nothing beyond the conflict set: no
	// pattern or token counters should move.
	f := setup(t, requerySrc, NewRequery)
	f.insert(t, "Emp", value.OfSym("Ann"), value.OfInt(100), value.OfInt(7))
	f.insert(t, "Dept", value.OfInt(7), value.OfSym("Toy"))
	if f.st.Get(metrics.PatternsStored) != 0 || f.st.Get(metrics.TokensStored) != 0 {
		t.Error("requery must not store intermediate results")
	}
}
