package joiner

import (
	"sort"
	"strings"
	"testing"

	"prodsys/internal/metrics"
	"prodsys/internal/relation"
	"prodsys/internal/rules"
	"prodsys/internal/value"
)

// collectPlanned is collect routed through a planner.
func collectPlanned(f *fixture, p *Planner, ruleName string, pin *Pin) []string {
	r, _ := f.set.RuleByName(ruleName)
	var out []string
	p.Enumerate(f.db, r, pin, f.st, func(ids []relation.TupleID, tuples []relation.Tuple, b rules.Bindings) {
		key := ruleName
		for _, id := range ids {
			key += "|" + itoa(int(id))
		}
		out = append(out, key)
	})
	return out
}

// sortedEq compares two instantiation-key sets ignoring emission order
// (the planner may reorder enumeration; the produced set must not
// change).
func sortedEq(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]string(nil), a...)
	bs := append([]string(nil), b...)
	sort.Strings(as)
	sort.Strings(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

func TestPlannedMatchesFixedOrder(t *testing.T) {
	f := setup(t)
	p := NewPlanner(f.db, f.st)
	ann := f.insert(t, "Emp", value.OfSym("Ann"), value.OfInt(100), value.OfInt(7))
	f.insert(t, "Emp", value.OfSym("Bob"), value.OfInt(200), value.OfInt(7))
	f.insert(t, "Emp", value.OfSym("Cat"), value.OfInt(50), value.OfInt(9))
	f.insert(t, "Dept", value.OfInt(7), value.OfSym("Toy"))
	f.insert(t, "Dept", value.OfInt(9), value.OfSym("Shoe"))

	for _, rule := range []string{"Toy", "Lonely"} {
		if got, want := collectPlanned(f, p, rule, nil), collect(f, rule, nil); !sortedEq(got, want) {
			t.Errorf("%s full: planned %v, fixed %v", rule, got, want)
		}
	}
	annTup, _ := f.db.MustGet("Emp").Get(ann)
	pin := &Pin{CE: 0, ID: ann, Tuple: annTup}
	if got, want := collectPlanned(f, p, "Toy", pin), collect(f, "Toy", pin); !sortedEq(got, want) {
		t.Errorf("Toy pinned: planned %v, fixed %v", got, want)
	}
}

// TestNilPlannerFallsBack checks the nil receiver is the fixed-order
// evaluation, emission order included.
func TestNilPlannerFallsBack(t *testing.T) {
	f := setup(t)
	f.insert(t, "Emp", value.OfSym("Ann"), value.OfInt(100), value.OfInt(7))
	f.insert(t, "Dept", value.OfInt(7), value.OfSym("Toy"))
	var p *Planner
	got := collectPlanned(f, p, "Toy", nil)
	want := collect(f, "Toy", nil)
	if len(got) != len(want) {
		t.Fatalf("nil planner: %v vs %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("nil planner order diverges: %v vs %v", got, want)
		}
	}
}

// TestPinnedRespectsNonEqBindingOrder pins a condition element whose
// non-equality test reads a variable another condition element binds:
// the plan must evaluate the binder first or the pinned MatchWith
// fails closed and derivations are silently lost.
func TestPinnedRespectsNonEqBindingOrder(t *testing.T) {
	src := `
(literalize Emp name salary manager)
(p overpaid
    (Emp ^name <N> ^salary <S> ^manager <M>)
    (Emp ^name <M> ^salary {<S1> < <S>})
  -->
    (remove 1))
`
	set, _, err := rules.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	st := &metrics.Set{}
	db := relation.NewDB(st)
	if err := rules.BuildDB(set, db); err != nil {
		t.Fatal(err)
	}
	emp := db.MustGet("Emp")
	mike := relation.Tuple{value.OfSym("Mike"), value.OfInt(1000), value.OfSym("Sam")}
	sam := relation.Tuple{value.OfSym("Sam"), value.OfInt(900), value.OfSym("Pat")}
	if _, err := emp.Insert(mike); err != nil {
		t.Fatal(err)
	}
	samID, err := emp.Insert(sam)
	if err != nil {
		t.Fatal(err)
	}

	r := set.Rules[0]
	p := NewPlanner(db, st)
	// Pin CE1 (the manager's row): its salary test reads <S>, bound by CE0.
	n := 0
	p.Enumerate(db, r, &Pin{CE: 1, ID: samID, Tuple: sam}, st, func([]relation.TupleID, []relation.Tuple, rules.Bindings) {
		n++
	})
	if n != 1 {
		t.Fatalf("pinned CE1 derivations = %d, want 1\nplan:\n%s", n, p.Plan(r, 1))
	}
	plan := p.Plan(r, 1)
	if plan.Steps[0].Pinned {
		t.Fatalf("pinned CE1 must not run first (its <S> test is unbound):\n%s", plan)
	}
}

// TestNegatedAfterEarlierPositives checks a negated condition element
// never runs before a positive one with a smaller LHS index, which
// would turn its equality tests into local bindings and wrongly widen
// the NOT EXISTS.
func TestNegatedAfterEarlierPositives(t *testing.T) {
	f := setup(t)
	p := NewPlanner(f.db, f.st)
	r, _ := f.set.RuleByName("Lonely")
	for _, pinned := range []int{-1, 0} {
		plan := p.Plan(r, pinned)
		posAt, negAt := -1, -1
		for i, s := range plan.Steps {
			if s.Negated {
				negAt = i
			} else {
				posAt = i
			}
		}
		if negAt < posAt {
			t.Errorf("pinned=%d: negated CE scheduled before positive CE0:\n%s", pinned, plan)
		}
	}
}

func TestPlanCacheHitsAndDriftInvalidation(t *testing.T) {
	f := setup(t)
	f.insert(t, "Emp", value.OfSym("Ann"), value.OfInt(100), value.OfInt(7))
	f.insert(t, "Dept", value.OfInt(7), value.OfSym("Toy"))
	p := NewPlanner(f.db, f.st)
	for i := 0; i < 10; i++ {
		collectPlanned(f, p, "Toy", nil)
	}
	if got := f.st.Get(metrics.PlansBuilt); got != 1 {
		t.Fatalf("plans_built = %d, want 1", got)
	}
	if got := f.st.Get(metrics.PlanCacheHits); got != 9 {
		t.Fatalf("plan_cache_hits = %d, want 9", got)
	}

	// Grow Emp far past the drift slack; the next checked execution
	// must rebuild the plan.
	for i := 0; i < 300; i++ {
		f.insert(t, "Emp", value.OfSym("X"), value.OfInt(int64(i)), value.OfInt(7))
	}
	for i := 0; i < 2*driftCheckEvery; i++ {
		collectPlanned(f, p, "Toy", nil)
	}
	if got := f.st.Get(metrics.PlanInvalidations); got == 0 {
		t.Fatal("no plan invalidation despite 300x cardinality growth")
	}
	if got := f.st.Get(metrics.PlansBuilt); got < 2 {
		t.Fatalf("plans_built = %d, want a rebuild after drift", got)
	}
	r, _ := f.set.RuleByName("Toy")
	plan := p.Plan(r, -1)
	if s := plan.Step(0); s == nil || s.BaseRows < 300 {
		t.Fatalf("rebuilt plan still carries stale base cardinality:\n%s", plan)
	}
}

// TestDriftStableCardinality pins the other side of the drift contract:
// a relation whose cardinality has not moved since the plan was built
// never invalidates it, however many checked executions run, and
// genuine growth afterwards still does.
func TestDriftStableCardinality(t *testing.T) {
	f := setup(t)
	for i := 0; i < 200; i++ {
		f.insert(t, "Emp", value.OfSym("E"+itoa(i)), value.OfInt(int64(i)), value.OfInt(7))
	}
	f.insert(t, "Dept", value.OfInt(7), value.OfSym("Toy"))
	p := NewPlanner(f.db, f.st)

	collectPlanned(f, p, "Toy", nil)
	r, _ := f.set.RuleByName("Toy")
	if s := p.Plan(r, -1).Step(0); s == nil || s.BaseRows != 200 {
		t.Fatalf("build-time Emp cardinality = %v, want 200:\n%s", s, p.Plan(r, -1))
	}

	// Stable cardinality: many checked executions, zero invalidations.
	for i := 0; i < 4*driftCheckEvery; i++ {
		collectPlanned(f, p, "Toy", nil)
	}
	if got := f.st.Get(metrics.PlanInvalidations); got != 0 {
		t.Fatalf("plan_invalidations = %d on stable cardinality, want 0", got)
	}
	if got := f.st.Get(metrics.PlansBuilt); got != 1 {
		t.Fatalf("plans_built = %d on stable cardinality, want 1", got)
	}

	// Genuine growth must still trip the drift check.
	for i := 0; i < 500; i++ {
		f.insert(t, "Emp", value.OfSym("G"+itoa(i)), value.OfInt(int64(i)), value.OfInt(7))
	}
	for i := 0; i < 2*driftCheckEvery; i++ {
		collectPlanned(f, p, "Toy", nil)
	}
	if got := f.st.Get(metrics.PlanInvalidations); got == 0 {
		t.Fatal("no plan invalidation despite 3.5x cardinality growth")
	}
	if s := p.Plan(r, -1).Step(0); s == nil || s.BaseRows < 700 {
		t.Fatalf("rebuilt plan still carries stale base cardinality:\n%s", p.Plan(r, -1))
	}
}

// TestSingleAccessPathPerEvaluation checks the satellite-6 accounting
// contract on the planned executor: an index-probed condition element
// evaluation charges the probe and nothing else, never probe + scan.
func TestSingleAccessPathPerEvaluation(t *testing.T) {
	f := setup(t)
	f.insert(t, "Emp", value.OfSym("Ann"), value.OfInt(100), value.OfInt(7))
	for i := 0; i < 20; i++ {
		f.insert(t, "Dept", value.OfInt(int64(i)), value.OfSym("Shoe"))
	}
	f.insert(t, "Dept", value.OfInt(7), value.OfSym("Toy"))

	p := NewPlanner(f.db, f.st)
	collectPlanned(f, p, "Toy", nil) // warm: plan build reads stats only
	before := f.st.Snapshot()
	collectPlanned(f, p, "Toy", nil)
	d := f.st.Snapshot().Diff(before)

	r, _ := f.set.RuleByName("Toy")
	plan := p.Plan(r, -1)
	dept := plan.Step(1)
	if dept == nil || dept.AccessPath != AccessIndexEq {
		t.Fatalf("Dept step should join via the dno hash index:\n%s", plan)
	}
	// One Emp access (scan or probe) + one Dept index probe; the
	// Dept evaluation must not also count a scan of Dept's 21 tuples.
	if lk := d.Get(metrics.IndexLookups); lk == 0 {
		t.Fatalf("no index lookups charged: %v", d)
	}
	if sc := d.Get(metrics.TuplesScanned); sc > 1 { // the single Emp tuple
		t.Fatalf("tuples_scanned = %d: an index-probed evaluation also charged a scan (%v)", sc, d)
	}
}

func TestPlanStringRendersEstimatesAndActuals(t *testing.T) {
	f := setup(t)
	f.insert(t, "Emp", value.OfSym("Ann"), value.OfInt(100), value.OfInt(7))
	f.insert(t, "Dept", value.OfInt(7), value.OfSym("Toy"))
	p := NewPlanner(f.db, f.st)
	collectPlanned(f, p, "Toy", nil)
	out := p.Plan(f.set.Rules[0], -1).String()
	for _, want := range []string{"plan Toy", "est=", "actual=", "CE1", "CE2"} {
		if !strings.Contains(out, want) {
			t.Errorf("Plan.String missing %q:\n%s", want, out)
		}
	}
}

// TestPlannedEnumerateAllocsNothingPerCandidate pins the planned
// executor's copy-free inner loop: with a discarding emit, a join over
// 400 candidates allocates exactly what one over 10 does — candidate
// tuples are lent by the relation and bindings are made and undone in
// place.
func TestPlannedEnumerateAllocsNothingPerCandidate(t *testing.T) {
	allocs := func(n int) float64 {
		f := setup(t)
		for i := 0; i < n; i++ {
			f.insert(t, "Emp", value.OfSym("E"+itoa(i)), value.OfInt(int64(i)), value.OfInt(7))
		}
		id := f.insert(t, "Dept", value.OfInt(7), value.OfSym("Toy"))
		tup, _ := f.db.MustGet("Dept").Get(id)
		r, _ := f.set.RuleByName("Toy")
		p := NewPlanner(f.db, f.st)
		pin := &Pin{CE: 1, ID: id, Tuple: tup}
		got := 0
		p.Enumerate(f.db, r, pin, f.st, func([]relation.TupleID, []relation.Tuple, rules.Bindings) { got++ })
		if got != n {
			t.Fatalf("%d employees: %d matches", n, got)
		}
		return testing.AllocsPerRun(50, func() {
			p.Enumerate(f.db, r, pin, f.st, func([]relation.TupleID, []relation.Tuple, rules.Bindings) {})
		})
	}
	small, large := allocs(10), allocs(400)
	if large > small {
		t.Errorf("400 candidates allocate %v objects, 10 allocate %v: the join allocates per candidate", large, small)
	}
}
