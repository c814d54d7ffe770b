package recheck

import (
	"testing"

	"prodsys/internal/metrics"
	"prodsys/internal/relation"
	"prodsys/internal/rules"
	"prodsys/internal/trace"
	"prodsys/internal/value"
)

const markerSrc = `
(literalize Emp name salary dno)
(literalize Dept dno dname)
(p Toy (Emp ^dno <d>) (Dept ^dno <d> ^dname Toy) --> (remove 1))
(p Rich (Emp ^salary > 1000) --> (halt))
`

func TestIntervalWakeAndFire(t *testing.T) {
	f := setup(t, markerSrc, NewMarker)
	f.insert(t, "Emp", value.OfSym("Ann"), value.OfInt(500), value.OfInt(7))
	if f.cs.Len() != 0 {
		t.Fatalf("nothing should fire: %v", f.cs.Keys())
	}
	f.insert(t, "Emp", value.OfSym("Bob"), value.OfInt(2000), value.OfInt(7))
	keys := f.cs.Keys()
	if len(keys) != 1 || keys[0] != "Rich|2" {
		t.Fatalf("Rich should fire for Bob: %v", keys)
	}
	f.insert(t, "Dept", value.OfInt(7), value.OfSym("Toy"))
	if f.cs.Len() != 3 {
		t.Fatalf("Toy fires for Ann and Bob: %v", f.cs.Keys())
	}
}

func TestFalseDropsCounted(t *testing.T) {
	f := setup(t, markerSrc, NewMarker)
	// An Emp insert wakes Toy (no constant restriction on Emp ⇒ whole
	// relation marked), which finds nothing: a false drop.
	f.insert(t, "Emp", value.OfSym("Ann"), value.OfInt(500), value.OfInt(7))
	if f.st.Get(metrics.FalseDrops) == 0 {
		t.Error("expected false drops from unrestricted interval marks")
	}
}

// TestFalseDropsTraced checks that each false drop, on the insert and
// the delete side, is tagged in the trace by a rule-level join_eval.
func TestFalseDropsTraced(t *testing.T) {
	f := setup(t, `
(literalize Emp dno)
(literalize Dept dno)
(p Orphan (Emp ^dno <d>) - (Dept ^dno <d>) --> (halt))
(p Staffed (Emp ^dno <d>) (Dept ^dno <d>) --> (halt))`, NewMarker)
	tr := trace.New()
	tr.Start(trace.Options{})
	f.m.SetTracer(tr)
	tags := func() (n map[string]int) {
		n = map[string]int{}
		for _, ev := range tr.Events() {
			if ev.Kind == trace.KindJoinEval && ev.Extra == "false drop" && ev.CE == -1 {
				n[ev.Rule]++
			}
		}
		return n
	}
	// With no Emp, the Dept insert wakes both rules fruitlessly, and its
	// deletion re-derives Orphan, which finds no Emp either.
	d := f.insert(t, "Dept", value.OfInt(9))
	insertTags := tags()
	f.remove(t, "Dept", d)
	if got := tags(); insertTags["Orphan"] != 1 || insertTags["Staffed"] != 1 || got["Orphan"] != 2 || f.st.Get(metrics.FalseDrops) != 3 {
		t.Fatalf("tags after insert %v, after delete %v; false drops %d", insertTags, got, f.st.Get(metrics.FalseDrops))
	}
}

func TestIntervalFiltersInserts(t *testing.T) {
	f := setup(t, markerSrc, NewMarker)
	before := f.st.Get(metrics.CandidateChecks)
	// Salary 500 falls outside Rich's (1000, +inf) interval: Rich not
	// woken by the salary dimension... but Toy's unrestricted interval
	// still wakes Toy. Count wakes per rule by checking Dept: a Dept
	// insert with dname ≠ Toy must not wake Toy's Dept condition mark?
	// Dept CE has dname = Toy point restriction:
	f.insert(t, "Dept", value.OfInt(9), value.OfSym("Shoe"))
	wakes := f.st.Get(metrics.CandidateChecks) - before
	if wakes != 0 {
		t.Fatalf("Shoe dept should wake nothing, woke %d", wakes)
	}
}

func TestDeleteRetractsViaMarks(t *testing.T) {
	f := setup(t, markerSrc, NewMarker)
	e := f.insert(t, "Emp", value.OfSym("Ann"), value.OfInt(500), value.OfInt(7))
	f.insert(t, "Dept", value.OfInt(7), value.OfSym("Toy"))
	if f.cs.Len() != 1 {
		t.Fatalf("setup: %v", f.cs.Keys())
	}
	if f.m.MarkCount() == 0 {
		t.Error("instantiation should mark its tuples")
	}
	f.remove(t, "Emp", e)
	if f.cs.Len() != 0 {
		t.Fatalf("deletion should retract: %v", f.cs.Keys())
	}
}

func TestDeleteOtherSideRetracts(t *testing.T) {
	f := setup(t, markerSrc, NewMarker)
	f.insert(t, "Emp", value.OfSym("Ann"), value.OfInt(500), value.OfInt(7))
	d := f.insert(t, "Dept", value.OfInt(7), value.OfSym("Toy"))
	f.remove(t, "Dept", d)
	if f.cs.Len() != 0 {
		t.Fatalf("dept deletion should retract Toy: %v", f.cs.Keys())
	}
}

func TestNameAndAccessors(t *testing.T) {
	f := setup(t, markerSrc, NewMarker)
	if f.m.Name() != "marker" {
		t.Errorf("Name = %q", f.m.Name())
	}
	if f.m.ConflictSet() != f.cs {
		t.Error("ConflictSet accessor")
	}
}

func TestIntervalContains(t *testing.T) {
	iv := interval{pos: 0, lo: value.OfInt(10), hi: value.OfInt(20)}
	if !iv.contains(value.OfInt(15)) || iv.contains(value.OfInt(5)) || iv.contains(value.OfInt(25)) {
		t.Error("bounded interval")
	}
	open := interval{pos: 0, lo: value.OfInt(10)}
	if !open.contains(value.OfInt(1<<40)) || open.contains(value.OfInt(3)) {
		t.Error("half-open interval")
	}
	if open.contains(value.V{}) {
		t.Error("nil never contained")
	}
}

func TestNegationWakeAndUnblock(t *testing.T) {
	// Exercises a wake's negated branch and a deletion's re-derivation.
	f := setup(t, `
(literalize Emp dno)
(literalize Dept dno)
(p Orphan (Emp ^dno <d>) - (Dept ^dno <d>) --> (halt))`, NewMarker)
	db, cs, st := f.db, f.cs, f.st
	ins := func(class string, vals ...value.V) relation.TupleID { return f.insert(t, class, vals...) }
	del := func(class string, id relation.TupleID) { f.remove(t, class, id) }

	ins("Emp", value.OfInt(7))
	if cs.Len() != 1 {
		t.Fatalf("orphan should fire: %v", cs.Keys())
	}
	// Blocker insert retracts through the wake's negated branch.
	d := ins("Dept", value.OfInt(7))
	if cs.Len() != 0 {
		t.Fatalf("blocker should retract: %v", cs.Keys())
	}
	// Blocker delete re-derives the woken rule.
	del("Dept", d)
	if cs.Len() != 1 {
		t.Fatalf("unblock should re-fire: %v", cs.Keys())
	}
	// With no employees left, a dept deletion wakes Orphan fruitlessly —
	// a false drop.
	d2 := ins("Dept", value.OfInt(9))
	for _, in := range cs.Items() {
		cs.Remove(in.Key())
	}
	empIDs := db.MustGet("Emp").Select(nil)
	for _, id := range empIDs {
		del("Emp", id)
	}
	before := st.Get(metrics.FalseDrops)
	del("Dept", d2)
	if st.Get(metrics.FalseDrops) == before {
		t.Error("fruitless delete wake should count a false drop")
	}
}

func TestIntervalForBounds(t *testing.T) {
	set, _, err := rules.CompileSource(`
(literalize R x y)
(p band (R ^x > 10 ^x < 20) --> (halt))
(p ceil (R ^y <= 5) --> (halt))`)
	if err != nil {
		t.Fatal(err)
	}
	band, _ := set.RuleByName("band")
	iv := intervalFor(band.CEs[0])
	if iv.pos != 0 || !iv.contains(value.OfInt(15)) || iv.contains(value.OfInt(25)) {
		t.Fatalf("band interval: %+v", iv)
	}
	ceil, _ := set.RuleByName("ceil")
	iv = intervalFor(ceil.CEs[0])
	if iv.pos != 1 || !iv.contains(value.OfInt(3)) || iv.contains(value.OfInt(9)) {
		t.Fatalf("ceil interval: %+v", iv)
	}
}
