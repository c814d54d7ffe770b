package joiner

import (
	"testing"

	"prodsys/internal/metrics"
	"prodsys/internal/relation"
	"prodsys/internal/rules"
	"prodsys/internal/value"
)

const src = `
(literalize Emp name salary dno)
(literalize Dept dno dname)
(p Toy (Emp ^name <n> ^dno <d>) (Dept ^dno <d> ^dname Toy) --> (remove 1))
(p Lonely (Emp ^name <n> ^dno <d>) - (Dept ^dno <d>) --> (halt))
`

type fixture struct {
	set *rules.Set
	db  *relation.DB
	st  *metrics.Set
}

func setup(t *testing.T) *fixture {
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
	return &fixture{set: set, db: db, st: st}
}

func (f *fixture) insert(t *testing.T, class string, vals ...value.V) relation.TupleID {
	t.Helper()
	id, err := f.db.MustGet(class).Insert(relation.Tuple(vals))
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func collect(f *fixture, ruleName string, pin *Pin) []string {
	r, _ := f.set.RuleByName(ruleName)
	var out []string
	Enumerate(f.db, r, pin, f.st, func(ids []relation.TupleID, tuples []relation.Tuple, b rules.Bindings) {
		key := ruleName
		for _, id := range ids {
			key += "|" + itoa(int(id))
		}
		out = append(out, key)
	})
	return out
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	s := ""
	for v > 0 {
		s = string(rune('0'+v%10)) + s
		v /= 10
	}
	return s
}

func TestEnumerateFull(t *testing.T) {
	f := setup(t)
	f.insert(t, "Emp", value.OfSym("Ann"), value.OfInt(100), value.OfInt(7))
	f.insert(t, "Emp", value.OfSym("Bob"), value.OfInt(200), value.OfInt(7))
	f.insert(t, "Dept", value.OfInt(7), value.OfSym("Toy"))
	got := collect(f, "Toy", nil)
	if len(got) != 2 || got[0] != "Toy|1|1" || got[1] != "Toy|2|1" {
		t.Fatalf("Enumerate = %v", got)
	}
}

func TestEnumerateFixed(t *testing.T) {
	f := setup(t)
	f.insert(t, "Emp", value.OfSym("Ann"), value.OfInt(100), value.OfInt(7))
	bob := f.insert(t, "Emp", value.OfSym("Bob"), value.OfInt(200), value.OfInt(7))
	f.insert(t, "Dept", value.OfInt(7), value.OfSym("Toy"))
	bobTup, _ := f.db.MustGet("Emp").Get(bob)
	got := collect(f, "Toy", &Pin{CE: 0, ID: bob, Tuple: bobTup})
	if len(got) != 1 || got[0] != "Toy|2|1" {
		t.Fatalf("fixed Enumerate = %v", got)
	}
	// A pinned tuple failing its own condition yields nothing.
	badTup := relation.Tuple{value.V{}, value.OfInt(1), value.OfInt(7)}
	got = collect(f, "Toy", &Pin{CE: 0, ID: 99, Tuple: badTup})
	if len(got) != 0 {
		t.Fatalf("nil-name pinned tuple should not match: %v", got)
	}
}

func TestEnumerateNegation(t *testing.T) {
	f := setup(t)
	f.insert(t, "Emp", value.OfSym("Ann"), value.OfInt(100), value.OfInt(7))
	got := collect(f, "Lonely", nil)
	if len(got) != 1 || got[0] != "Lonely|1|0" {
		t.Fatalf("no-dept should satisfy negation: %v", got)
	}
	f.insert(t, "Dept", value.OfInt(7), value.OfSym("Shoe"))
	got = collect(f, "Lonely", nil)
	if len(got) != 0 {
		t.Fatalf("dept 7 blocks Lonely: %v", got)
	}
	// Another employee in a dept with no relation row still qualifies.
	f.insert(t, "Emp", value.OfSym("Cat"), value.OfInt(1), value.OfInt(9))
	got = collect(f, "Lonely", nil)
	if len(got) != 1 || got[0] != "Lonely|2|0" {
		t.Fatalf("Cat should be lonely: %v", got)
	}
}

// TestEnumerateSeedBindings pins the later condition element: its
// tuple's bindings seed the join, so the earlier one probes on <d> and
// checks only the matching employee.
func TestEnumerateSeedBindings(t *testing.T) {
	f := setup(t)
	f.insert(t, "Emp", value.OfSym("Ann"), value.OfInt(100), value.OfInt(7))
	f.insert(t, "Emp", value.OfSym("Bob"), value.OfInt(200), value.OfInt(8))
	f.insert(t, "Dept", value.OfInt(7), value.OfSym("Toy"))
	eight := f.insert(t, "Dept", value.OfInt(8), value.OfSym("Toy"))
	tup, _ := f.db.MustGet("Dept").Get(eight)
	before := f.st.Get(metrics.CandidateChecks)
	got := collect(f, "Toy", &Pin{CE: 1, ID: eight, Tuple: tup})
	if len(got) != 1 || got[0] != "Toy|2|2" {
		t.Fatalf("seeded Enumerate = %v", got)
	}
	if n := f.st.Get(metrics.CandidateChecks) - before; n != 1 {
		t.Fatalf("candidate checks = %d, want 1 (the probe on the seeded <d>)", n)
	}
}

func TestEnumerateMissingClassRelation(t *testing.T) {
	set, _, err := rules.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	db := relation.NewDB(nil) // empty catalog: no relations at all
	r, _ := set.RuleByName("Toy")
	count := 0
	Enumerate(db, r, nil, nil, func([]relation.TupleID, []relation.Tuple, rules.Bindings) { count++ })
	if count != 0 {
		t.Fatal("missing positive relation should yield nothing")
	}
	// Negated class missing ⇒ trivially satisfied.
	lonely, _ := set.RuleByName("Lonely")
	empOnly := relation.NewDB(nil)
	empOnly.Create("Emp", "name", "salary", "dno")
	empOnly.MustGet("Emp").Insert(relation.Tuple{value.OfSym("A"), value.OfInt(1), value.OfInt(2)})
	count = 0
	Enumerate(empOnly, lonely, nil, nil, func([]relation.TupleID, []relation.Tuple, rules.Bindings) { count++ })
	if count != 1 {
		t.Fatalf("missing negated relation should satisfy NOT EXISTS, got %d", count)
	}
}

// TestExists covers the NOT EXISTS primitive negated condition
// elements are evaluated with.
func TestExists(t *testing.T) {
	f := setup(t)
	lonely, _ := f.set.RuleByName("Lonely")
	negCE := lonely.CEs[1]
	dept := f.db.MustGet("Dept")
	d, _ := lonely.Slot("d")
	with := func(v value.V) rules.Bindings {
		b := make(rules.Bindings, len(lonely.Vars))
		b[d] = v
		return b
	}
	if existsMatch(dept, negCE, with(value.OfInt(7)), f.st) {
		t.Fatal("no dept yet")
	}
	f.insert(t, "Dept", value.OfInt(7), value.OfSym("Toy"))
	b := with(value.OfInt(7))
	if !existsMatch(dept, negCE, b, f.st) {
		t.Fatal("dept 7 exists")
	}
	if !value.Equal(b[d], value.OfInt(7)) {
		t.Fatalf("existsMatch changed the caller's bindings: %v", b)
	}
	if existsMatch(dept, negCE, with(value.OfInt(9)), f.st) {
		t.Fatal("dept 9 does not exist")
	}
}

// TestEnumerateEmitLends checks the emit contract of both executors: the
// ids, tuples and bindings are the join's own buffers, refilled as it
// backtracks, with every slot unbound again once the join is done; a
// caller keeping a match copies it.
func TestEnumerateEmitLends(t *testing.T) {
	f := setup(t)
	f.insert(t, "Emp", value.OfSym("Ann"), value.OfInt(100), value.OfInt(7))
	f.insert(t, "Emp", value.OfSym("Bob"), value.OfInt(200), value.OfInt(7))
	f.insert(t, "Dept", value.OfInt(7), value.OfSym("Toy"))
	r, _ := f.set.RuleByName("Toy")
	n, _ := r.Slot("n")
	for _, p := range []*Planner{nil, NewPlanner(f.db, f.st)} {
		var lent [][]relation.TupleID
		var kept []string
		var b rules.Bindings
		p.Enumerate(f.db, r, nil, f.st, func(ids []relation.TupleID, tuples []relation.Tuple, eb rules.Bindings) {
			lent = append(lent, ids)
			kept = append(kept, eb[n].AsString()+"|"+itoa(int(ids[0])))
			if !value.Equal(eb[n], tuples[0][0]) {
				t.Fatalf("bindings disagree with tuples: %v vs %v", eb, tuples)
			}
			b = eb
		})
		if len(kept) != 2 || kept[0] != "Ann|1" || kept[1] != "Bob|2" {
			t.Fatalf("planner %v: emitted %v", p != nil, kept)
		}
		if &lent[0][0] != &lent[1][0] {
			t.Fatalf("planner %v: emitted ids are fresh copies, want the join's buffer", p != nil)
		}
		for s, v := range b {
			if !v.IsNil() {
				t.Fatalf("planner %v: slot %s still bound after the join: %v", p != nil, r.Vars[s], v)
			}
		}
	}
}

func TestJoinStepsCounted(t *testing.T) {
	f := setup(t)
	f.insert(t, "Emp", value.OfSym("Ann"), value.OfInt(100), value.OfInt(7))
	before := f.st.Get(metrics.JoinsComputed)
	collect(f, "Toy", nil)
	if f.st.Get(metrics.JoinsComputed) == before {
		t.Fatal("join steps not counted")
	}
}
