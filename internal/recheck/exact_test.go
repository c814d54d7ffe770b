package recheck

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"prodsys/internal/conflict"
	"prodsys/internal/joiner"
	"prodsys/internal/match"
	"prodsys/internal/metrics"
	"prodsys/internal/relation"
	"prodsys/internal/rules"
	"prodsys/internal/value"
)

// verifyAll is the test hook that turns exact detection off: every
// candidate goes through the verification join, as before exactness.
func (m *Matcher) verifyAll() {
	for _, ci := range m.f.(*cond).ces {
		ci.partner = -1
	}
}

// twoCEProgram draws a random two-condition-element rule joined on <x>:
// optionally a self-join, a second join variable, constant tests, a
// same-element inequality (still exact) or a cross-element inequality
// (which must disqualify exactness).
func twoCEProgram(r *rand.Rand) (src string, exact bool) {
	consts := []string{"^c > 0", "^c 1", "^c <> 2", "^c <= 1"}
	first := []string{"^a <x>"}
	local := r.Intn(2) == 0
	if local {
		first = append(first, "^b <y>")
	}
	if r.Intn(3) == 0 {
		first = append(first, consts[r.Intn(len(consts))])
	}
	class2 := "B"
	if r.Intn(3) == 0 {
		class2 = "A" // self-join on one class
	}
	second := []string{[]string{"^a <x>", "^b <x>"}[r.Intn(2)]}
	exact = true
	switch r.Intn(5) {
	case 0:
		second = append(second, "^c > <x>") // x is equality-bound right here
	case 1:
		if local {
			second = append(second, "^c > <y>") // y comes only from the first element
			exact = false
		}
	case 2:
		if local && !strings.Contains(second[0], "^b") {
			second = append(second, "^b <y>") // a second join variable
		}
	case 3:
		second = append(second, consts[r.Intn(len(consts))])
	}
	return fmt.Sprintf(`
(literalize A a b c)
(literalize B a b c)
(p two (A %s) (%s %s) --> (halt))`, strings.Join(first, " "), class2, strings.Join(second, " ")), exact
}

// joinVal draws from a small domain in which Int and Float collide
// under OPS5 equality, with the odd nil field.
func joinVal(r *rand.Rand) value.V {
	switch r.Intn(7) {
	case 0:
		return value.V{}
	case 1:
		return value.OfFloat(1)
	case 2:
		return value.OfFloat(2)
	default:
		return value.OfInt(int64(r.Intn(3)))
	}
}

// TestExactDetectionAgainstOracles runs randomized two-CE programs
// through core (exact detection where the rule qualifies), core with
// verification forced for every rule, and requery, tuple-at-a-time and
// in multi-class batches: conflict-set keys and every instantiation's
// bindings must agree, exact detection must add the instantiations in
// the verification join's order, and tuple-at-a-time an exact rule must
// compute no join.
func TestExactDetectionAgainstOracles(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		src, wantExact := twoCEProgram(r)
		for _, batched := range []bool{false, true} {
			runExactAgreement(t, r, src, wantExact, batched, fmt.Sprintf("seed=%d batched=%v%s", seed, batched, src))
		}
	}
}

func runExactAgreement(t *testing.T, r *rand.Rand, src string, wantExact, batched bool, ctx string) {
	t.Helper()
	set, _, err := rules.CompileSource(src)
	if err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	db := relation.NewDB(&metrics.Set{})
	if err := rules.BuildDB(set, db); err != nil {
		t.Fatal(err)
	}
	exactStats, verifyStats := &metrics.Set{}, &metrics.Set{}
	exact := NewCore(set, db, conflict.NewSet(set, exactStats), exactStats)
	exact.SetPlanner(joiner.NewPlanner(db, exactStats))
	verify := NewCore(set, db, conflict.NewSet(set, verifyStats), verifyStats)
	verify.SetPlanner(joiner.NewPlanner(db, verifyStats))
	verify.verifyAll()
	oracle := NewRequery(set, db, conflict.NewSet(set, nil), &metrics.Set{})
	matchers := []match.Matcher{exact, verify, oracle}

	for _, ci := range exact.f.(*cond).ces {
		if got := ci.partner >= 0; got != wantExact {
			t.Fatalf("%s: CE%d exact = %v, want %v", ctx, ci.ce.CEN(), got, wantExact)
		}
	}

	live := map[string][]relation.TupleID{}
	for step := 0; step < 50; step++ {
		d := relation.NewDelta()
		n := 1
		if batched {
			n = 1 + r.Intn(5)
		}
		for i := 0; i < n; i++ {
			class := []string{"A", "B"}[r.Intn(2)]
			rel := db.MustGet(class)
			if ids := live[class]; len(ids) > 0 && r.Intn(3) == 0 {
				k := r.Intn(len(ids))
				tup, err := rel.Delete(ids[k])
				if err != nil {
					t.Fatal(err)
				}
				d.AddDelete(class, ids[k], tup) // born in this batch: nets out
				live[class] = append(ids[:k], ids[k+1:]...)
				continue
			}
			id, err := rel.Insert(relation.Tuple{joinVal(r), joinVal(r), joinVal(r)})
			if err != nil {
				t.Fatal(err)
			}
			tup, _ := rel.Get(id)
			d.AddInsert(class, id, tup)
			live[class] = append(live[class], id)
		}
		for _, m := range matchers {
			_, err = match.ApplyDelta(m, d) // a one-change delta unbatched
			if err != nil {
				t.Fatalf("%s: %s: %v", ctx, m.Name(), err)
			}
		}
		where := fmt.Sprintf("%s\nstep %d", ctx, step)
		want := instByKey(oracle.ConflictSet())
		for _, m := range []*Matcher{exact, verify} {
			got := instByKey(m.ConflictSet())
			if len(got) != len(want) {
				t.Fatalf("%s: %s-%p conflict set %v, requery %v", where, m.Name(), m, m.ConflictSet().Keys(), oracle.ConflictSet().Keys())
			}
			for k, in := range want {
				g := got[k]
				if g == nil {
					t.Fatalf("%s: instantiation %s missing from core", where, k)
				}
				gb, wb := g.Rule.Fill(nil, g.Tuples), in.Rule.Fill(nil, in.Tuples)
				for s := range wb {
					if !value.Equal(gb[s], wb[s]) {
						t.Fatalf("%s: instantiation %s: core %v, requery %v", where, k, gb, wb)
					}
				}
			}
		}
		if got, want := seqKeys(exact.ConflictSet()), seqKeys(verify.ConflictSet()); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: exact arrival order %v, verification order %v", where, got, want)
		}
	}
	if wantExact {
		if j := exactStats.Get(metrics.JoinsComputed); j != 0 && !batched {
			t.Fatalf("%s: exact rule computed %d joins", ctx, j)
		}
		if fd := exactStats.Get(metrics.FalseDrops); fd != 0 {
			t.Fatalf("%s: exact rule had %d false drops", ctx, fd)
		}
	}
	if divs := twinDiff(exact); len(divs) > 0 {
		t.Fatalf("%s: audit: %v", ctx, divs)
	}
}

// twinDiff is the integrity audit's comparison, made inside the package
// (internal/audit imports recheck through internal/matchers): it builds a
// core matcher from scratch over m's WM, fed one insert batch per class
// and carrying m's refraction marks, and lists the DumpDerived lines and
// eligible instantiation keys on which m and the twin differ.
func twinDiff(m *Matcher) []string {
	twin := NewCore(m.set, m.db, m.cs.Scratch(), nil)
	d := relation.NewDelta()
	for _, class := range m.set.ClassNames() {
		m.db.MustGet(class).Scan(func(id relation.TupleID, t relation.Tuple) bool {
			d.AddInsert(class, id, t)
			return true
		})
	}
	if _, err := match.ApplyDelta(twin, d); err != nil {
		return []string{err.Error()}
	}
	count := map[string]int{}
	twin.DumpDerived(nil, func(rule, line string) { count[rule+" "+line]++ })
	m.DumpDerived(nil, func(rule, line string) { count[rule+" "+line]-- })
	for _, in := range twin.cs.SelectAll() {
		count["eligible "+in.KeyString()]++
	}
	for _, in := range m.cs.SelectAll() {
		count["eligible "+in.KeyString()]--
	}
	var out []string
	for k, n := range count {
		if n != 0 {
			out = append(out, fmt.Sprintf("%s (twin minus live: %+d)", k, n))
		}
	}
	sort.Strings(out)
	return out
}

func instByKey(cs *conflict.Set) map[string]*conflict.Instantiation {
	out := map[string]*conflict.Instantiation{}
	for _, in := range cs.Items() {
		out[in.KeyString()] = in
	}
	return out
}

func seqKeys(cs *conflict.Set) []string {
	var out []string
	for _, in := range cs.Items() {
		out = append(out, in.KeyString())
	}
	return out
}

// TestExactEmissionAllocsPerInstantiation pins exact emission at one
// allocation per instantiation: the instantiation and its tuple arrays
// share one object, the partner tuples are lent by the relation, and the
// bindings live in a reused slot vector, so no per-match map is built.
func TestExactEmissionAllocsPerInstantiation(t *testing.T) {
	f := setup(t, `
(literalize A a b)
(literalize B a b)
(p two (A ^a <x> ^b <y>) (B ^a <x> ^b <z>) --> (halt))`, NewCore)
	const n = 32
	var partners []relation.TupleID
	for i := 0; i < n; i++ {
		partners = append(partners, f.insert(t, "B", value.OfInt(1), value.OfInt(int64(i))))
	}
	rel := f.db.MustGet("A")
	id, err := rel.Insert(relation.Tuple{value.OfInt(1), value.OfInt(7)})
	if err != nil {
		t.Fatal(err)
	}
	tup, _ := rel.Get(id)
	c := f.m.f.(*cond)
	ci := c.ces[f.m.set.Rules[0].CEs[0]]
	if ci.partner < 0 {
		t.Fatal("rule two should be exact")
	}
	emit := func() int {
		ins := c.buildExact(f.m, ci, id, tup, partners)
		clear(ins)
		f.m.ins = ins[:0]
		return len(ins)
	}
	if got := emit(); got != n {
		t.Fatalf("built %d instantiations, want %d", got, n)
	}
	if allocs := testing.AllocsPerRun(20, func() { emit() }); allocs > n {
		t.Errorf("exact emission of %d instantiations allocates %v objects, want at most %d", n, allocs, n)
	}
}
