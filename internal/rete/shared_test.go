package rete

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"prodsys/internal/conflict"
	"prodsys/internal/metrics"
	"prodsys/internal/relation"
	"prodsys/internal/rules"
	"prodsys/internal/value"
)

// These tests hold New's beta-prefix-shared network against the
// unshared compile (NewUnshared), the reference it must agree with.

// prefixSharingSrc: three rules sharing their first two condition
// elements, diverging on the third.
const prefixSharingSrc = `
(literalize Goal type object)
(literalize Expression name arg1 op arg2)
(literalize Ctx mode)

(p PlusOX
    (Goal ^type Simplify ^object <N>)
    (Expression ^name <N> ^arg1 0 ^op + ^arg2 <X>)
  -->
    (modify 2 ^op nil ^arg1 nil))

(p PlusOXLogged
    (Goal ^type Simplify ^object <N>)
    (Expression ^name <N> ^arg1 0 ^op + ^arg2 <X>)
    (Ctx ^mode verbose)
  -->
    (modify 2 ^op nil ^arg1 nil))

(p PlusOXStrict
    (Goal ^type Simplify ^object <N>)
    (Expression ^name <N> ^arg1 0 ^op + ^arg2 <X>)
    (Ctx ^mode strict)
  -->
    (remove 2))
`

func buildBoth(t *testing.T, src string) (plain, shared *Network, plainStats, sharedStats *metrics.Set) {
	t.Helper()
	set, _, err := rules.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	plainStats, sharedStats = &metrics.Set{}, &metrics.Set{}
	plain = NewUnshared(set, conflict.NewSet(set, nil), plainStats)
	// Compile a second, independent set for the shared network so rule
	// pointers differ but semantics match.
	set2, _, err := rules.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	shared = New(set2, conflict.NewSet(set2, nil), sharedStats)
	return plain, shared, plainStats, sharedStats
}

func feedBoth(a, b *Network, class string, id relation.TupleID, t relation.Tuple) {
	insert1(a, class, id, t)
	insert1(b, class, id, t)
}

func TestSharedNetworkNameAndEquivalence(t *testing.T) {
	plain, shared, _, _ := buildBoth(t, prefixSharingSrc)
	if plain.Name() != "rete-unshared" || shared.Name() != "rete" {
		t.Fatalf("names: %q %q", plain.Name(), shared.Name())
	}
	feedBoth(plain, shared, "Goal", 1, relation.Tuple{value.OfSym("Simplify"), value.OfSym("e1")})
	feedBoth(plain, shared, "Expression", 1, relation.Tuple{value.OfSym("e1"), value.OfInt(0), value.OfSym("+"), value.OfInt(7)})
	feedBoth(plain, shared, "Ctx", 1, relation.Tuple{value.OfSym("verbose")})
	if !reflect.DeepEqual(plain.cs.Keys(), shared.cs.Keys()) {
		t.Fatalf("conflict sets differ:\nplain:  %v\nshared: %v", plain.cs.Keys(), shared.cs.Keys())
	}
	if plain.cs.Len() != 2 { // PlusOX and PlusOXLogged
		t.Fatalf("conflict set = %v", plain.cs.Keys())
	}
	// Deletion equivalence.
	delete1(plain, "Expression", 1, nil)
	delete1(shared, "Expression", 1, nil)
	if plain.cs.Len() != 0 || shared.cs.Len() != 0 {
		t.Fatalf("retraction: plain=%v shared=%v", plain.cs.Keys(), shared.cs.Keys())
	}
}

// TestDumpIndependentOfSharing: the audit compares DumpDerived listings
// across compiles, so the shared and unshared networks over the same WM
// must list the same lines, a blocked negative-node token included.
func TestDumpIndependentOfSharing(t *testing.T) {
	src := prefixSharingSrc + `
(p NoCtx
    (Goal ^type Simplify ^object <N>)
    (Expression ^name <N> ^arg1 0 ^op + ^arg2 <X>)
    - (Ctx ^mode <X>)
  -->
    (remove 2))
`
	plain, shared, _, _ := buildBoth(t, src)
	for i := 1; i <= 4; i++ {
		feedBoth(plain, shared, "Goal", relation.TupleID(i), relation.Tuple{value.OfSym("Simplify"), value.OfSym(fmt.Sprintf("e%d", i))})
		feedBoth(plain, shared, "Expression", relation.TupleID(i), relation.Tuple{value.OfSym(fmt.Sprintf("e%d", i)), value.OfInt(0), value.OfSym("+"), value.OfInt(int64(i))})
	}
	feedBoth(plain, shared, "Ctx", 1, relation.Tuple{value.OfSym("verbose")})
	feedBoth(plain, shared, "Ctx", 2, relation.Tuple{value.OfInt(2)})
	dump := func(net *Network) []string {
		var out []string
		net.DumpDerived(nil, func(rule, line string) { out = append(out, rule+" "+line) })
		sort.Strings(out)
		return out
	}
	p, s := dump(plain), dump(shared)
	if !reflect.DeepEqual(p, s) {
		t.Fatalf("listings differ:\nunshared: %v\nshared:   %v", p, s)
	}
	blocked := false
	for _, line := range p {
		blocked = blocked || strings.Contains(line, "blocked×1")
	}
	if !blocked {
		t.Fatalf("no blocked negative-node token listed: %v", p)
	}
}

func TestSharedNetworkSavesActivations(t *testing.T) {
	plain, shared, ps, ss := buildBoth(t, prefixSharingSrc)
	for i := 1; i <= 20; i++ {
		g := relation.Tuple{value.OfSym("Simplify"), value.OfSym(fmt.Sprintf("e%d", i))}
		x := relation.Tuple{value.OfSym(fmt.Sprintf("e%d", i)), value.OfInt(0), value.OfSym("+"), value.OfInt(int64(i))}
		feedBoth(plain, shared, "Goal", relation.TupleID(i), g)
		feedBoth(plain, shared, "Expression", relation.TupleID(i), x)
	}
	pa := ps.Get(metrics.NodeActivations)
	sa := ss.Get(metrics.NodeActivations)
	if sa >= pa {
		t.Fatalf("sharing should reduce activations: plain=%d shared=%d", pa, sa)
	}
	pt := plain.TokenCount()
	st := shared.TokenCount()
	if st >= pt {
		t.Fatalf("sharing should reduce stored tokens: plain=%d shared=%d", pt, st)
	}
}

func TestSharedNetworkDivergentSuffixIndependent(t *testing.T) {
	_, shared, _, _ := buildBoth(t, prefixSharingSrc)
	insert1(shared, "Goal", 1, relation.Tuple{value.OfSym("Simplify"), value.OfSym("e1")})
	insert1(shared, "Expression", 1, relation.Tuple{value.OfSym("e1"), value.OfInt(0), value.OfSym("+"), value.OfInt(7)})
	insert1(shared, "Ctx", 1, relation.Tuple{value.OfSym("strict")})
	keys := shared.cs.Keys()
	want := []string{"PlusOXStrict|1|1|1", "PlusOX|1|1"} // Keys() sorts lexically
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("keys = %v, want %v", keys, want)
	}
}

func TestSharedNetworkWithNegationPrefix(t *testing.T) {
	src := `
(literalize A x)
(literalize B x)
(literalize C x)
(p R1 (A ^x <v>) - (B ^x <v>) --> (halt))
(p R2 (A ^x <v>) - (B ^x <v>) (C ^x <v>) --> (halt))
`
	plain, shared, _, _ := buildBoth(t, src)
	feedBoth(plain, shared, "A", 1, relation.Tuple{value.OfInt(5)})
	feedBoth(plain, shared, "C", 1, relation.Tuple{value.OfInt(5)})
	if !reflect.DeepEqual(plain.cs.Keys(), shared.cs.Keys()) {
		t.Fatalf("plain %v vs shared %v", plain.cs.Keys(), shared.cs.Keys())
	}
	// Blocker retracts both rules in both networks.
	feedBoth(plain, shared, "B", 1, relation.Tuple{value.OfInt(5)})
	if plain.cs.Len() != 0 || shared.cs.Len() != 0 {
		t.Fatalf("blocker: plain %v vs shared %v", plain.cs.Keys(), shared.cs.Keys())
	}
	feedBoth(plain, shared, "B", 2, relation.Tuple{value.OfInt(9)})
	delete1(plain, "B", 1, nil)
	delete1(shared, "B", 1, nil)
	if !reflect.DeepEqual(plain.cs.Keys(), shared.cs.Keys()) {
		t.Fatalf("unblock: plain %v vs shared %v", plain.cs.Keys(), shared.cs.Keys())
	}
}

func TestSharedChainCacheSize(t *testing.T) {
	set, _, err := rules.CompileSource(prefixSharingSrc)
	if err != nil {
		t.Fatal(err)
	}
	shared := New(set, conflict.NewSet(set, nil), nil)
	// Distinct prefixes: [Goal], [Goal,Expr], [Goal,Expr,Ctx=verbose],
	// [Goal,Expr,Ctx=strict] = 4.
	if got := len(shared.chains); got != 4 {
		t.Fatalf("cached chain steps = %d, want 4", got)
	}
	plain := NewUnshared(set, conflict.NewSet(set, nil), nil)
	if len(plain.chains) != 0 {
		t.Fatal("unshared network must not cache chains")
	}
}
