package crosscheck

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"prodsys/internal/conflict"
	"prodsys/internal/joiner"
	"prodsys/internal/match"
	"prodsys/internal/matchers"
	"prodsys/internal/metrics"
	"prodsys/internal/relation"
	"prodsys/internal/rules"
	"prodsys/internal/value"
)

// This file checks that an instantiation's bindings, read on demand from
// its tuples, are the bindings its match makes: for random programs, on
// every matcher, tuple-at-a-time and batched, each instantiation's slot
// vector must equal what a map-based chain of variable tests over its
// tuples binds, in source order.

// bindingProgram draws a random program over two classes: rules of two or
// three condition elements with self-joins, range joins, a second join
// variable, constant tests, and negated elements with local variables.
func bindingProgram(r *rand.Rand) string {
	pick := func(xs ...string) string { return xs[r.Intn(len(xs))] }
	var b strings.Builder
	b.WriteString("(literalize A a b c)\n(literalize B a b c)\n")
	for i := 0; i < 1+r.Intn(3); i++ {
		first := "(A ^a <x>"
		bound := []string{"x"}
		if r.Intn(2) == 0 {
			first += " ^b <y>"
			bound = append(bound, "y")
		}
		if r.Intn(3) == 0 {
			first += " " + pick("^c > 0", "^c <> 2", "^c <= 1")
		}
		first += ")"
		second := "(" + pick("A", "B") + " " + pick("^a <x>", "^b <x>", "^c <x>")
		switch r.Intn(4) {
		case 0:
			second += " ^c " + pick(">", "<", ">=", "<>") + " <" + bound[r.Intn(len(bound))] + ">"
		case 1:
			second += " ^b <z>"
			bound = append(bound, "z")
		case 2:
			if len(bound) > 1 {
				second += " ^b <y>"
			}
		}
		second += ")"
		third := ""
		switch r.Intn(3) {
		case 0:
			third = "- (" + pick("A", "B") + " ^a <" + bound[r.Intn(len(bound))] + "> ^b <w> ^c > <w>)"
		case 1:
			third = "(" + pick("A", "B") + " ^c <" + bound[r.Intn(len(bound))] + "> ^a <v>)"
		}
		fmt.Fprintf(&b, "(p r%d %s %s %s --> (halt))\n", i, first, second, third)
	}
	return b.String()
}

// mapChain is the map-based reference match: it runs the variable tests
// of each positive condition element over its tuple in source order,
// binding a variable at its first equality test and comparing after. It
// reports false when the tuples do not satisfy the positive elements.
func mapChain(in *conflict.Instantiation) (map[string]value.V, bool) {
	b := map[string]value.V{}
	for i, ce := range in.Rule.CEs {
		if ce.Negated {
			continue
		}
		t := in.Tuples[i]
		if !ce.MatchAlpha(t) {
			return nil, false
		}
		for _, vt := range ce.VarTests {
			cur, bound := b[vt.Var]
			switch {
			case bound:
				if !vt.Op.Apply(t[vt.Pos], cur) {
					return nil, false
				}
			case vt.Op == value.OpEq && !t[vt.Pos].IsNil():
				b[vt.Var] = t[vt.Pos]
			default:
				return nil, false
			}
		}
	}
	return b, true
}

// checkBindings compares every instantiation's on-demand bindings with
// the map-based chain over its tuples.
func checkBindings(t *testing.T, where string, cs *conflict.Set) {
	t.Helper()
	for _, in := range cs.Items() {
		want, ok := mapChain(in)
		if !ok {
			t.Fatalf("%s: %s: tuples %v do not satisfy the rule", where, in.KeyString(), in.Tuples)
		}
		got := in.Rule.Fill(nil, in.Tuples)
		for s, name := range in.Rule.Vars {
			w, bound := want[name]
			if bound != !got[s].IsNil() || (bound && !value.Equal(got[s], w)) {
				t.Fatalf("%s: %s: <%s> = %v on demand, %v (bound %v) by the chain", where, in.KeyString(), name, got[s], w, bound)
			}
		}
	}
}

func TestOnDemandBindingsMatchChain(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		src := bindingProgram(rand.New(rand.NewSource(seed)))
		for _, batched := range []bool{false, true} {
			runOnDemandBindings(t, src, seed, batched)
		}
	}
}

func runOnDemandBindings(t *testing.T, src string, seed int64, batched bool) {
	t.Helper()
	ctx := fmt.Sprintf("seed=%d batched=%v\n%s", seed, batched, src)
	set, _, err := rules.CompileSource(src)
	if err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	db := relation.NewDB(&metrics.Set{})
	if err := rules.BuildDB(set, db); err != nil {
		t.Fatal(err)
	}
	var ms []match.Matcher
	for _, name := range matchers.Names() {
		stats := &metrics.Set{}
		m, err := matchers.New(name, set, db, conflict.NewSet(set, stats), stats)
		if err != nil {
			t.Fatal(err)
		}
		m.SetPlanner(joiner.NewPlanner(db, stats))
		ms = append(ms, m)
	}
	r := rand.New(rand.NewSource(seed))
	val := func() value.V { // Int and Float collide under OPS5 equality
		switch r.Intn(8) {
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
	live := map[string][]relation.TupleID{}
	for step := 0; step < 40; step++ {
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
				d.AddDelete(class, ids[k], tup)
				live[class] = append(ids[:k], ids[k+1:]...)
				continue
			}
			id, err := rel.Insert(relation.Tuple{val(), val(), val()})
			if err != nil {
				t.Fatal(err)
			}
			tup, _ := rel.Get(id)
			d.AddInsert(class, id, tup)
			live[class] = append(live[class], id)
		}
		var want []string
		for _, m := range ms {
			_, err = match.ApplyDelta(m, d) // a one-change delta unbatched
			if err != nil {
				t.Fatalf("%s: %s: %v", ctx, m.Name(), err)
			}
			where := fmt.Sprintf("%s\nstep %d %s", ctx, step, m.Name())
			checkBindings(t, where, m.ConflictSet())
			keys := m.ConflictSet().Keys()
			if want == nil {
				want = keys
			} else if !reflect.DeepEqual(keys, want) {
				t.Fatalf("%s: conflict set %v, %s has %v", where, keys, ms[0].Name(), want)
			}
		}
	}
}
