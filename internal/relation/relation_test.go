package relation

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"testing/quick"

	"prodsys/internal/metrics"
	"prodsys/internal/value"
)

func empTuple(name string, age, salary int64, dept string) Tuple {
	return Tuple{value.OfSym(name), value.OfInt(age), value.OfInt(salary), value.OfSym(dept)}
}

func newEmp(t *testing.T) *Relation {
	t.Helper()
	return New(MustSchema("Emp", "name", "age", "salary", "dept"), nil)
}

func TestNewSchemaValidation(t *testing.T) {
	if _, err := NewSchema(""); err == nil {
		t.Error("empty name should fail")
	}
	if _, err := NewSchema("R"); err == nil {
		t.Error("no attributes should fail")
	}
	if _, err := NewSchema("R", "a", "a"); err == nil {
		t.Error("duplicate attribute should fail")
	}
	if _, err := NewSchema("R", "a", ""); err == nil {
		t.Error("empty attribute should fail")
	}
	s, err := NewSchema("R", "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if s.Arity() != 2 || s.Name() != "R" || s.Attr(1) != "b" {
		t.Errorf("schema basics wrong: %v", s)
	}
	if p, ok := s.Pos("b"); !ok || p != 1 {
		t.Errorf("Pos(b) = %d,%v", p, ok)
	}
	if _, ok := s.Pos("zzz"); ok {
		t.Error("Pos of missing attribute should be !ok")
	}
	if got := s.String(); got != "R(a, b)" {
		t.Errorf("String = %q", got)
	}
}

func TestMustSchemaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustSchema should panic on invalid schema")
		}
	}()
	MustSchema("R")
}

func TestInsertGetDelete(t *testing.T) {
	r := newEmp(t)
	id, err := r.Insert(empTuple("Mike", 30, 1000, "Toy"))
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d", r.Len())
	}
	got, ok := r.Get(id)
	if !ok || !got.Equal(empTuple("Mike", 30, 1000, "Toy")) {
		t.Fatalf("Get = %v, %v", got, ok)
	}
	if _, ok := r.Get(id + 99); ok {
		t.Error("Get of unknown id should fail")
	}
	del, err := r.Delete(id)
	if err != nil || !del.Equal(empTuple("Mike", 30, 1000, "Toy")) {
		t.Fatalf("Delete = %v, %v", del, err)
	}
	if r.Len() != 0 {
		t.Fatalf("Len after delete = %d", r.Len())
	}
	if _, err := r.Delete(id); err == nil {
		t.Error("double delete should fail")
	}
}

func TestInsertArityMismatch(t *testing.T) {
	r := newEmp(t)
	short := Tuple{value.OfInt(1)}
	if _, err := r.Insert(short); !errors.Is(err, ErrArity) {
		t.Errorf("Insert of a short tuple: err = %v, want ErrArity", err)
	}
	if err := r.InsertBatch([]DeltaEntry{{Tuple: short}}); !errors.Is(err, ErrArity) {
		t.Errorf("InsertBatch of a short tuple: err = %v, want ErrArity", err)
	}
	if err := r.InsertAt(7, short); !errors.Is(err, ErrArity) {
		t.Errorf("InsertAt of a short tuple: err = %v, want ErrArity", err)
	}
	if r.Len() != 0 {
		t.Errorf("Len = %d after rejected inserts, want 0", r.Len())
	}
}

func TestInsertClonesTuple(t *testing.T) {
	r := newEmp(t)
	src := empTuple("Sam", 40, 2000, "Shoe")
	id, _ := r.Insert(src)
	src[0] = value.OfSym("Mutated")
	got, _ := r.Get(id)
	if got[0].AsString() != "Sam" {
		t.Error("relation must not alias caller's tuple")
	}
}

// TestGetLendsStoredTuple pins the lending contract: stored tuples are
// immutable, so Get and Scan hand out the stored tuple itself and a
// lookup allocates nothing.
func TestGetLendsStoredTuple(t *testing.T) {
	r := newEmp(t)
	id, _ := r.Insert(empTuple("Sam", 40, 2000, "Shoe"))
	a, _ := r.Get(id)
	b, _ := r.Get(id)
	if &a[0] != &b[0] {
		t.Error("Get copied the stored tuple")
	}
	r.Scan(func(_ TupleID, s Tuple) bool {
		if &s[0] != &a[0] {
			t.Error("Scan visits a copy, not the stored tuple")
		}
		return true
	})
	if n := testing.AllocsPerRun(100, func() { r.Get(id) }); n != 0 {
		t.Errorf("Get allocates %v objects, want 0", n)
	}
}

func TestScanOrderAndEarlyStop(t *testing.T) {
	r := newEmp(t)
	var ids []TupleID
	for i := 0; i < 5; i++ {
		id, _ := r.Insert(empTuple(fmt.Sprintf("e%d", i), int64(20+i), 100, "D"))
		ids = append(ids, id)
	}
	r.Delete(ids[2])
	var seen []TupleID
	r.Scan(func(id TupleID, _ Tuple) bool {
		seen = append(seen, id)
		return true
	})
	if len(seen) != 4 {
		t.Fatalf("scan saw %d tuples", len(seen))
	}
	for i := 1; i < len(seen); i++ {
		if seen[i] <= seen[i-1] {
			t.Fatalf("scan not in ascending id order: %v", seen)
		}
	}
	count := 0
	r.Scan(func(TupleID, Tuple) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestSelectEqWithAndWithoutIndex(t *testing.T) {
	r := newEmp(t)
	for i := 0; i < 10; i++ {
		dept := "Toy"
		if i%2 == 0 {
			dept = "Shoe"
		}
		r.Insert(empTuple(fmt.Sprintf("e%d", i), int64(20+i), int64(100*i), dept))
	}
	scanRes := r.SelectEq(3, value.OfSym("Toy"))
	if len(scanRes) != 5 {
		t.Fatalf("scan SelectEq found %d", len(scanRes))
	}
	if err := r.CreateIndex(3); err != nil {
		t.Fatal(err)
	}
	if !r.HasIndex(3) {
		t.Fatal("index not created")
	}
	idxRes := r.SelectEq(3, value.OfSym("Toy"))
	if len(idxRes) != len(scanRes) {
		t.Fatalf("index SelectEq found %d, scan found %d", len(idxRes), len(scanRes))
	}
	for i := range idxRes {
		if idxRes[i] != scanRes[i] {
			t.Fatalf("index and scan results differ: %v vs %v", idxRes, scanRes)
		}
	}
}

func TestCreateIndexValidation(t *testing.T) {
	r := newEmp(t)
	if err := r.CreateIndex(-1); err == nil {
		t.Error("negative pos should fail")
	}
	if err := r.CreateIndex(4); err == nil {
		t.Error("out of range pos should fail")
	}
	if err := r.CreateIndex(0); err != nil {
		t.Error(err)
	}
	if err := r.CreateIndex(0); err != nil {
		t.Error("re-creating index should be idempotent")
	}
}

func TestIndexMaintainedAcrossDelete(t *testing.T) {
	r := newEmp(t)
	r.CreateIndex(3)
	id1, _ := r.Insert(empTuple("a", 1, 1, "Toy"))
	id2, _ := r.Insert(empTuple("b", 2, 2, "Toy"))
	r.Delete(id1)
	got := r.SelectEq(3, value.OfSym("Toy"))
	if len(got) != 1 || got[0] != id2 {
		t.Fatalf("SelectEq after delete = %v", got)
	}
}

func TestIndexNumericCoercion(t *testing.T) {
	r := New(MustSchema("R", "x"), nil)
	r.CreateIndex(0)
	r.Insert(Tuple{value.OfFloat(3.0)})
	got := r.SelectEq(0, value.OfInt(3))
	if len(got) != 1 {
		t.Fatalf("index lookup should find Float(3.0) by Int(3), got %v", got)
	}
}

// TestNaNNeverIndexed pins NaN's treatment as incomparable: a NaN
// tuple inserted and deleted over and over on an ordered index leaves no
// key behind, and no range probe returns it, deleted or live.
func TestNaNNeverIndexed(t *testing.T) {
	r := New(MustSchema("R", "x"), nil)
	r.CreateIndex(0)
	nan := value.OfFloat(math.NaN())
	for i := 0; i < 5; i++ {
		id, err := r.Insert(Tuple{nan})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if d := r.Stats().Indexes[0].Distinct; d != 0 {
		t.Fatalf("index holds %d distinct keys after every NaN tuple left, want 0", d)
	}
	if got := r.SelectRange(0, Bounds{Lo: value.OfInt(0)}); len(got) != 0 {
		t.Fatalf("SelectRange(> 0) = %v after every NaN tuple left", got)
	}
	id, _ := r.Insert(Tuple{nan})
	for _, b := range []Bounds{{Lo: value.OfInt(0)}, {Hi: value.OfInt(0)}, {Lo: nan}, {Hi: nan, HiIncl: true}} {
		if got := r.SelectRange(0, b); len(got) != 0 {
			t.Errorf("SelectRange(%+v) = %v, want nothing: NaN orders with nothing", b, got)
		}
	}
	if got := r.SelectEq(0, nan); len(got) != 0 {
		t.Errorf("SelectEq(NaN) = %v, want nothing: NaN equals nothing", got)
	}
	if got := r.Select([]Restriction{{Pos: 0, Op: value.OpGt, Val: value.OfInt(0)}}); len(got) != 0 {
		t.Errorf("Select(x > 0) = %v, want nothing (NaN tuple %d)", got, id)
	}
}

func TestSelectWithRestrictions(t *testing.T) {
	r := newEmp(t)
	r.CreateIndex(3)
	for i := 0; i < 10; i++ {
		r.Insert(empTuple(fmt.Sprintf("e%d", i), int64(20+i), int64(100*i), "Toy"))
	}
	rs := []Restriction{
		{Pos: 3, Op: value.OpEq, Val: value.OfSym("Toy")},
		{Pos: 1, Op: value.OpGt, Val: value.OfInt(25)},
	}
	got := r.Select(rs)
	if len(got) != 4 {
		t.Fatalf("Select found %d, want 4", len(got))
	}
	for _, id := range got {
		if tup, _ := r.Get(id); !SatisfiesAll(tup, rs) {
			t.Fatalf("tuple %d does not satisfy: %v", id, tup)
		}
	}
}

func TestSelectNoIndexPath(t *testing.T) {
	r := newEmp(t)
	for i := 0; i < 4; i++ {
		r.Insert(empTuple(fmt.Sprintf("e%d", i), int64(i), 0, "D"))
	}
	got := r.Select([]Restriction{{Pos: 1, Op: value.OpGe, Val: value.OfInt(2)}})
	if len(got) != 2 {
		t.Fatalf("Select = %v", got)
	}
}

func TestDBCatalog(t *testing.T) {
	db := NewDB(nil)
	r1, err := db.Create("Emp", "name", "age")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Create("Emp", "x"); err == nil {
		t.Error("duplicate create should fail")
	}
	if _, err := db.Create("", "x"); err == nil {
		t.Error("bad schema should fail")
	}
	db.Create("Dept", "dno")
	got, ok := db.Get("Emp")
	if !ok || got != r1 {
		t.Fatalf("Get = %v,%v", got, ok)
	}
	if names := db.Names(); len(names) != 2 || names[0] != "Dept" || names[1] != "Emp" {
		t.Fatalf("Names = %v", names)
	}
	if db.MustGet("Emp") != r1 {
		t.Fatal("MustGet mismatch")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MustGet of missing relation should panic")
			}
		}()
		db.MustGet("Nope")
	}()
}

// TestDBCatalogReadsDuringCreate reads the catalog from several
// goroutines while relations are created: every reader sees each
// published relation, and the catalog only grows.
func TestDBCatalogReadsDuringCreate(t *testing.T) {
	db := NewDB(nil)
	base, _ := db.Create("Base", "x")
	const creates = 40
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seen := 0
			for seen <= creates {
				if r, ok := db.Get("Base"); !ok || r != base {
					t.Errorf("Get(Base) = %v, %v", r, ok)
					return
				}
				names := db.Names()
				if len(names) < seen {
					t.Errorf("catalog shrank from %d to %d names", seen, len(names))
					return
				}
				seen = len(names)
				for _, n := range names {
					if _, ok := db.Get(n); !ok {
						t.Errorf("Names lists %s but Get misses it", n)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < creates; i++ {
		if _, err := db.Create(fmt.Sprintf("R%02d", i), "x"); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
}

func TestMetricsAccounting(t *testing.T) {
	var stats metrics.Set
	db := NewDB(&stats)
	r, _ := db.Create("R", "x")
	for i := 0; i < 100; i++ {
		r.Insert(Tuple{value.OfInt(int64(i))})
	}
	if got := stats.Get(metrics.TuplesInserted); got != 100 {
		t.Fatalf("TuplesInserted = %d", got)
	}
	before := stats.Get(metrics.PagesRead)
	r.Scan(func(TupleID, Tuple) bool { return true })
	delta := stats.Get(metrics.PagesRead) - before
	want := int64((100 + DefaultPageSize - 1) / DefaultPageSize)
	if delta != want {
		t.Fatalf("scan pages read = %d, want %d", delta, want)
	}
	r.CreateIndex(0)
	before = stats.Get(metrics.IndexLookups)
	r.SelectEq(0, value.OfInt(5))
	if stats.Get(metrics.IndexLookups) != before+1 {
		t.Fatal("index lookup not counted")
	}
}

func TestRestrictionSatisfies(t *testing.T) {
	tup := Tuple{value.OfInt(5), value.OfSym("x")}
	if !(Restriction{Pos: 0, Op: value.OpGt, Val: value.OfInt(3)}).Satisfies(tup) {
		t.Error("5 > 3 should hold")
	}
	if (Restriction{Pos: 5, Op: value.OpEq, Val: value.OfInt(3)}).Satisfies(tup) {
		t.Error("out-of-range restriction should be false")
	}
	if !SatisfiesAll(tup, nil) {
		t.Error("empty restrictions are vacuously satisfied")
	}
}

func TestTupleCloneEqualString(t *testing.T) {
	tup := empTuple("a", 1, 2, "D")
	c := tup.Clone()
	if !c.Equal(tup) {
		t.Error("clone not equal")
	}
	c[0] = value.OfSym("zz")
	if tup[0].AsString() != "a" {
		t.Error("clone aliases original")
	}
	if Tuple(nil).Clone() != nil {
		t.Error("nil clone should be nil")
	}
	if tup.Equal(tup[:2]) {
		t.Error("different arities are unequal")
	}
	if got := (Tuple{value.OfInt(1), value.OfSym("a")}).String(); got != "(1, a)" {
		t.Errorf("tuple String = %q", got)
	}
	// Numeric coercion in tuple equality.
	if !(Tuple{value.OfInt(3)}).Equal(Tuple{value.OfFloat(3.0)}) {
		t.Error("Int/Float tuples should be Equal")
	}
}

func TestConcurrentInsertScan(t *testing.T) {
	r := New(MustSchema("R", "x"), nil)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			r.Insert(Tuple{value.OfInt(int64(i))})
		}
	}()
	for i := 0; i < 50; i++ {
		r.Scan(func(TupleID, Tuple) bool { return true })
	}
	<-done
	if r.Len() != 500 {
		t.Fatalf("Len = %d", r.Len())
	}
}

func TestIDMonotonicityProperty(t *testing.T) {
	// TupleIDs are strictly increasing regardless of interleaved deletes.
	f := func(ops []bool) bool {
		r := New(MustSchema("R", "x"), nil)
		var last TupleID
		var live []TupleID
		for i, ins := range ops {
			if ins || len(live) == 0 {
				id, err := r.Insert(Tuple{value.OfInt(int64(i))})
				if err != nil || id <= last {
					return false
				}
				last = id
				live = append(live, id)
			} else {
				id := live[len(live)-1]
				live = live[:len(live)-1]
				if _, err := r.Delete(id); err != nil {
					return false
				}
			}
		}
		return r.Len() == len(live)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
