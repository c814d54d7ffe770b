package rete

import (
	"fmt"
	"testing"

	"prodsys/internal/conflict"
	"prodsys/internal/metrics"
	"prodsys/internal/relation"
	"prodsys/internal/rules"
	"prodsys/internal/value"
)

func build(t *testing.T, src string) (*Network, *conflict.Set, *metrics.Set) {
	t.Helper()
	set, _, err := rules.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	stats := &metrics.Set{}
	cs := conflict.NewSet(set, stats)
	return New(set, cs, stats), cs, stats
}

const payrollSrc = `
(literalize Emp name age salary dno manager)
(literalize Dept dno dname floor manager)

(p R1
    (Emp ^name Mike ^salary <S> ^manager <M>)
    (Emp ^name <M> ^salary {<S1> < <S>})
  -->
    (remove 1))

(p R2
    (Emp ^dno <D>)
    (Dept ^dno <D> ^dname Toy ^floor 1)
  -->
    (remove 1))
`

func emp(name string, age, salary, dno int64, mgr string) relation.Tuple {
	return relation.Tuple{
		value.OfSym(name), value.OfInt(age), value.OfInt(salary),
		value.OfInt(dno), value.OfSym(mgr),
	}
}

func dept(dno int64, dname string, floor int64, mgr string) relation.Tuple {
	return relation.Tuple{value.OfInt(dno), value.OfSym(dname), value.OfInt(floor), value.OfSym(mgr)}
}

// insert1 and delete1 hand the network a one-entry batch.
func insert1(net *Network, class string, id relation.TupleID, t relation.Tuple) error {
	return net.InsertBatch(class, []relation.DeltaEntry{{ID: id, Tuple: t}})
}
func delete1(net *Network, class string, id relation.TupleID, t relation.Tuple) error {
	return net.DeleteBatch(class, []relation.DeltaEntry{{ID: id, Tuple: t}})
}

func TestPaperExample3R1(t *testing.T) {
	net, cs, _ := build(t, payrollSrc)
	// Mike earns 1000, his manager Sam earns 900 → R1 applies.
	insert1(net, "Emp", 1, emp("Mike", 30, 1000, 1, "Sam"))
	if cs.Len() != 0 {
		t.Fatalf("premature instantiation: %v", cs.Keys())
	}
	insert1(net, "Emp", 2, emp("Sam", 50, 900, 1, "Pat"))
	keys := cs.Keys()
	if len(keys) != 1 || keys[0] != "R1|1|2" {
		t.Fatalf("conflict set = %v", keys)
	}
	in := cs.Items()[0]
	if !value.Equal(binding(in, "S"), value.OfInt(1000)) ||
		!value.Equal(binding(in, "S1"), value.OfInt(900)) ||
		!value.Equal(binding(in, "M"), value.OfSym("Sam")) {
		t.Fatalf("bindings = %v", in.Rule.Fill(nil, in.Tuples))
	}
}

// binding reads the named variable's binding from the instantiation's
// tuples.
func binding(in *conflict.Instantiation, name string) value.V {
	s, _ := in.Rule.Slot(name)
	return in.Rule.Value(in.Tuples, s)
}

func TestPaperExample3R1RightThenLeft(t *testing.T) {
	// Order reversed: the token queues at the two-input node waiting for
	// a future arrival (paper §3.1).
	net, cs, _ := build(t, payrollSrc)
	insert1(net, "Emp", 1, emp("Sam", 50, 900, 1, "Pat"))
	if cs.Len() != 0 {
		t.Fatalf("premature: %v", cs.Keys())
	}
	insert1(net, "Emp", 2, emp("Mike", 30, 1000, 1, "Sam"))
	if keys := cs.Keys(); len(keys) != 1 || keys[0] != "R1|2|1" {
		t.Fatalf("conflict set = %v", keys)
	}
}

func TestPaperExample3R1NoMatch(t *testing.T) {
	net, cs, _ := build(t, payrollSrc)
	insert1(net, "Emp", 1, emp("Mike", 30, 1000, 1, "Sam"))
	insert1(net, "Emp", 2, emp("Sam", 50, 1500, 1, "Pat")) // Sam earns more
	if cs.Len() != 0 {
		t.Fatalf("R1 should not fire: %v", cs.Keys())
	}
}

func TestPaperExample3R2(t *testing.T) {
	net, cs, _ := build(t, payrollSrc)
	insert1(net, "Emp", 1, emp("Ann", 25, 500, 7, "Sam"))
	insert1(net, "Dept", 1, dept(7, "Toy", 1, "Sam"))
	if keys := cs.Keys(); len(keys) != 1 || keys[0] != "R2|1|1" {
		t.Fatalf("conflict set = %v", keys)
	}
	// A Shoe department on floor 1 does not trigger R2.
	insert1(net, "Dept", 2, dept(7, "Shoe", 1, "Sam"))
	if cs.Len() != 1 {
		t.Fatalf("Shoe dept should not add: %v", cs.Keys())
	}
	// Another employee in dept 7 adds a second instantiation.
	insert1(net, "Emp", 2, emp("Bob", 30, 600, 7, "Sam"))
	if cs.Len() != 2 {
		t.Fatalf("conflict set = %v", cs.Keys())
	}
}

func TestDeleteRetracts(t *testing.T) {
	net, cs, _ := build(t, payrollSrc)
	insert1(net, "Emp", 1, emp("Ann", 25, 500, 7, "x"))
	insert1(net, "Dept", 2, dept(7, "Toy", 1, "x"))
	if cs.Len() != 1 {
		t.Fatalf("setup failed: %v", cs.Keys())
	}
	if err := delete1(net, "Dept", 2, nil); err != nil {
		t.Fatal(err)
	}
	if cs.Len() != 0 {
		t.Fatalf("retraction failed: %v", cs.Keys())
	}
	// Reinsert: fires again (new tuple id → new instantiation).
	insert1(net, "Dept", 3, dept(7, "Toy", 1, "x"))
	if keys := cs.Keys(); len(keys) != 1 || keys[0] != "R2|1|3" {
		t.Fatalf("re-fire failed: %v", keys)
	}
}

func TestDeleteLeftSideRetracts(t *testing.T) {
	net, cs, _ := build(t, payrollSrc)
	insert1(net, "Emp", 1, emp("Ann", 25, 500, 7, "x"))
	insert1(net, "Dept", 2, dept(7, "Toy", 1, "x"))
	delete1(net, "Emp", 1, nil)
	if cs.Len() != 0 {
		t.Fatalf("left-side retraction failed: %v", cs.Keys())
	}
}

func TestInsertDeleteErrors(t *testing.T) {
	net, _, _ := build(t, payrollSrc)
	insert1(net, "Emp", 1, emp("A", 1, 1, 1, "x"))
	if err := insert1(net, "Emp", 1, emp("B", 2, 2, 2, "y")); err == nil {
		t.Error("duplicate insert should error")
	}
	if err := delete1(net, "Emp", 99, nil); err == nil {
		t.Error("unknown delete should error")
	}
	// Unknown classes flow through the root and are discarded.
	if err := insert1(net, "Ghost", 5, relation.Tuple{value.OfInt(1)}); err != nil {
		t.Errorf("unknown class insert should be a no-op: %v", err)
	}
}

const threeWaySrc = `
(literalize A a1 a2 a3)
(literalize B b1 b2 b3)
(literalize C c1 c2 c3)
(p Rule-1
    (A ^a1 <x> ^a2 a ^a3 <z>)
    (B ^b1 <x> ^b2 <y> ^b3 b)
    (C ^c1 c ^c2 <y> ^c3 <z>)
  -->
    (halt))
`

func abc(v1, v2, v3 value.V) relation.Tuple { return relation.Tuple{v1, v2, v3} }

func TestPaperExample5ThreeWayJoin(t *testing.T) {
	// The insertion sequence of Example 5: B(4,5,b), C(c,7,8), A(4,a,8),
	// B(4,7,b). Only after the last insert does Rule-1 enter the conflict
	// set.
	net, cs, _ := build(t, threeWaySrc)
	insert1(net, "B", 1, abc(value.OfInt(4), value.OfInt(5), value.OfSym("b")))
	insert1(net, "C", 2, abc(value.OfSym("c"), value.OfInt(7), value.OfInt(8)))
	insert1(net, "A", 3, abc(value.OfInt(4), value.OfSym("a"), value.OfInt(8)))
	if cs.Len() != 0 {
		t.Fatalf("premature fire: %v", cs.Keys())
	}
	insert1(net, "B", 4, abc(value.OfInt(4), value.OfInt(7), value.OfSym("b")))
	keys := cs.Keys()
	if len(keys) != 1 || keys[0] != "Rule-1|3|4|2" {
		t.Fatalf("conflict set = %v", keys)
	}
	in := cs.Items()[0]
	if !value.Equal(binding(in, "x"), value.OfInt(4)) || !value.Equal(binding(in, "y"), value.OfInt(7)) || !value.Equal(binding(in, "z"), value.OfInt(8)) {
		t.Fatalf("bindings = %v", in.Rule.Fill(nil, in.Tuples))
	}
}

func TestThreeWayJoinAllOrders(t *testing.T) {
	// The final conflict set must be order-independent.
	type ins struct {
		class string
		id    relation.TupleID
		tup   relation.Tuple
	}
	base := []ins{
		{"A", 1, abc(value.OfInt(4), value.OfSym("a"), value.OfInt(8))},
		{"B", 2, abc(value.OfInt(4), value.OfInt(7), value.OfSym("b"))},
		{"C", 3, abc(value.OfSym("c"), value.OfInt(7), value.OfInt(8))},
	}
	perms := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for _, perm := range perms {
		net, cs, _ := build(t, threeWaySrc)
		for _, i := range perm {
			insert1(net, base[i].class, base[i].id, base[i].tup)
		}
		if keys := cs.Keys(); len(keys) != 1 || keys[0] != "Rule-1|1|2|3" {
			t.Fatalf("perm %v: conflict set = %v", perm, keys)
		}
	}
}

func TestSameClassSelfJoinNoDuplicates(t *testing.T) {
	// One WME matching two condition elements of the same rule must
	// produce exactly one instantiation pairing it with itself.
	net, cs, _ := build(t, `
(literalize A x y)
(p Self (A ^x <v>) (A ^y <v>) --> (halt))`)
	insert1(net, "A", 1, relation.Tuple{value.OfInt(3), value.OfInt(3)})
	if keys := cs.Keys(); len(keys) != 1 || keys[0] != "Self|1|1" {
		t.Fatalf("conflict set = %v", keys)
	}
	// A second WME (5,3) matches CE1 with v=5 (pairs with nothing) and
	// CE2 with v=3 (pairs with WME 1).
	insert1(net, "A", 2, relation.Tuple{value.OfInt(5), value.OfInt(3)})
	want := map[string]bool{"Self|1|1": true, "Self|1|2": true}
	keys := cs.Keys()
	if len(keys) != 2 || !want[keys[0]] || !want[keys[1]] {
		t.Fatalf("conflict set = %v", keys)
	}
}

func TestIntraCEVariableRepetition(t *testing.T) {
	net, cs, _ := build(t, `
(literalize A x y)
(p Eq (A ^x <v> ^y <v>) --> (halt))`)
	insert1(net, "A", 1, relation.Tuple{value.OfInt(3), value.OfInt(4)})
	if cs.Len() != 0 {
		t.Fatalf("x≠y should not match: %v", cs.Keys())
	}
	insert1(net, "A", 2, relation.Tuple{value.OfInt(7), value.OfInt(7)})
	if keys := cs.Keys(); len(keys) != 1 || keys[0] != "Eq|2" {
		t.Fatalf("conflict set = %v", keys)
	}
}

func TestNegationBasic(t *testing.T) {
	net, cs, _ := build(t, `
(literalize Emp name dno)
(literalize Dept dno)
(p Orphan (Emp ^name <n> ^dno <d>) - (Dept ^dno <d>) --> (halt))`)
	insert1(net, "Emp", 1, relation.Tuple{value.OfSym("Ann"), value.OfInt(7)})
	if keys := cs.Keys(); len(keys) != 1 || keys[0] != "Orphan|1|0" {
		t.Fatalf("negation should fire with no Dept: %v", keys)
	}
	// Insert the blocker: retract.
	insert1(net, "Dept", 2, relation.Tuple{value.OfInt(7)})
	if cs.Len() != 0 {
		t.Fatalf("blocker should retract: %v", cs.Keys())
	}
	// A non-matching Dept does not block.
	insert1(net, "Dept", 3, relation.Tuple{value.OfInt(9)})
	if cs.Len() != 0 {
		t.Fatalf("still blocked: %v", cs.Keys())
	}
	// Remove the blocker: fires again.
	delete1(net, "Dept", 2, nil)
	if keys := cs.Keys(); len(keys) != 1 || keys[0] != "Orphan|1|0" {
		t.Fatalf("unblocking should re-fire: %v", keys)
	}
	// Deleting the employee retracts.
	delete1(net, "Emp", 1, nil)
	if cs.Len() != 0 {
		t.Fatalf("emp deletion should retract: %v", cs.Keys())
	}
}

func TestNegationBlockerFirst(t *testing.T) {
	net, cs, _ := build(t, `
(literalize Emp name dno)
(literalize Dept dno)
(p Orphan (Emp ^name <n> ^dno <d>) - (Dept ^dno <d>) --> (halt))`)
	insert1(net, "Dept", 1, relation.Tuple{value.OfInt(7)})
	insert1(net, "Emp", 2, relation.Tuple{value.OfSym("Ann"), value.OfInt(7)})
	if cs.Len() != 0 {
		t.Fatalf("pre-existing blocker: %v", cs.Keys())
	}
	delete1(net, "Dept", 1, nil)
	if cs.Len() != 1 {
		t.Fatalf("unblock failed: %v", cs.Keys())
	}
}

func TestNegationMultipleBlockers(t *testing.T) {
	net, cs, _ := build(t, `
(literalize Emp dno)
(literalize Dept dno)
(p Orphan (Emp ^dno <d>) - (Dept ^dno <d>) --> (halt))`)
	insert1(net, "Emp", 1, relation.Tuple{value.OfInt(7)})
	insert1(net, "Dept", 2, relation.Tuple{value.OfInt(7)})
	insert1(net, "Dept", 3, relation.Tuple{value.OfInt(7)})
	if cs.Len() != 0 {
		t.Fatal("blocked")
	}
	delete1(net, "Dept", 2, nil)
	if cs.Len() != 0 {
		t.Fatalf("one blocker remains: %v", cs.Keys())
	}
	delete1(net, "Dept", 3, nil)
	if cs.Len() != 1 {
		t.Fatalf("all blockers gone: %v", cs.Keys())
	}
}

func TestNegatedFirstCE(t *testing.T) {
	net, cs, _ := build(t, `
(literalize Halted flag)
(literalize Task name)
(p Start - (Halted ^flag 1) (Task ^name <n>) --> (halt))`)
	insert1(net, "Task", 1, relation.Tuple{value.OfSym("t1")})
	if keys := cs.Keys(); len(keys) != 1 || keys[0] != "Start|0|1" {
		t.Fatalf("negated-first should fire: %v", keys)
	}
	insert1(net, "Halted", 2, relation.Tuple{value.OfInt(1)})
	if cs.Len() != 0 {
		t.Fatalf("halted flag should block: %v", cs.Keys())
	}
	delete1(net, "Halted", 2, nil)
	if cs.Len() != 1 {
		t.Fatalf("unhalt should re-fire: %v", cs.Keys())
	}
}

func TestTrailingNegatedCE(t *testing.T) {
	net, cs, _ := build(t, `
(literalize A x)
(literalize B x)
(p NoB (A ^x <v>) - (B ^x <v>) --> (halt))`)
	insert1(net, "A", 1, relation.Tuple{value.OfInt(5)})
	if cs.Len() != 1 {
		t.Fatalf("trailing negation: %v", cs.Keys())
	}
}

func TestDoubleNegation(t *testing.T) {
	net, cs, _ := build(t, `
(literalize A x)
(literalize B x)
(literalize C x)
(p R (A ^x <v>) - (B ^x <v>) - (C ^x <v>) --> (halt))`)
	insert1(net, "A", 1, relation.Tuple{value.OfInt(5)})
	if cs.Len() != 1 {
		t.Fatalf("both absent: %v", cs.Keys())
	}
	insert1(net, "B", 2, relation.Tuple{value.OfInt(5)})
	if cs.Len() != 0 {
		t.Fatal("B blocks")
	}
	insert1(net, "C", 3, relation.Tuple{value.OfInt(5)})
	delete1(net, "B", 2, nil)
	if cs.Len() != 0 {
		t.Fatalf("C still blocks: %v", cs.Keys())
	}
	delete1(net, "C", 3, nil)
	if cs.Len() != 1 {
		t.Fatalf("both gone: %v", cs.Keys())
	}
}

func TestAlphaMemorySharing(t *testing.T) {
	// PlusOX and TimesOX share the Goal alpha path (paper Figure 3).
	set, _, err := rules.CompileSource(`
(literalize Goal type object)
(literalize Expression name arg1 op arg2)
(p PlusOX
    (Goal ^type Simplify ^object <N>)
    (Expression ^name <N> ^arg1 0 ^op + ^arg2 <X>)
  -->
    (modify 2 ^op nil ^arg1 nil))
(p TimesOX
    (Goal ^type Simplify ^object <N>)
    (Expression ^name <N> ^arg1 0 ^op * ^arg2 <X>)
  -->
    (modify 2 ^op nil ^arg1 nil))`)
	if err != nil {
		t.Fatal(err)
	}
	net := New(set, conflict.NewSet(set, nil), nil)
	// Goal alpha memory shared: 3 distinct signatures total (1 Goal + 2
	// Expression).
	if got := len(net.alphaBySig); got != 3 {
		t.Fatalf("alpha memories = %d, want 3 (Goal shared)", got)
	}
	cs := net.cs
	insert1(net, "Goal", 1, relation.Tuple{value.OfSym("Simplify"), value.OfSym("e1")})
	insert1(net, "Expression", 2, relation.Tuple{value.OfSym("e1"), value.OfInt(0), value.OfSym("+"), value.OfInt(9)})
	if keys := cs.Keys(); len(keys) != 1 || keys[0] != "PlusOX|1|2" {
		t.Fatalf("conflict set = %v", keys)
	}
	insert1(net, "Expression", 3, relation.Tuple{value.OfSym("e1"), value.OfInt(0), value.OfSym("*"), value.OfInt(9)})
	if cs.Len() != 2 {
		t.Fatalf("TimesOX should also fire: %v", cs.Keys())
	}
}

func TestTokenCountGrowsAndShrinks(t *testing.T) {
	net, _, stats := build(t, payrollSrc)
	if net.TokenCount() != 0 {
		t.Fatalf("initial TokenCount = %d", net.TokenCount())
	}
	insert1(net, "Emp", 1, emp("Mike", 30, 1000, 1, "Sam"))
	insert1(net, "Emp", 2, emp("Sam", 50, 900, 1, "Pat"))
	grown := net.TokenCount()
	if grown == 0 {
		t.Fatal("TokenCount should grow")
	}
	delete1(net, "Emp", 1, nil)
	delete1(net, "Emp", 2, nil)
	if got := net.TokenCount(); got != 0 {
		t.Fatalf("TokenCount after deletes = %d", got)
	}
	if stats.Get(metrics.TokensDeleted) == 0 {
		t.Error("TokensDeleted not counted")
	}
}

func TestNodeActivationsCounted(t *testing.T) {
	net, _, stats := build(t, payrollSrc)
	insert1(net, "Emp", 1, emp("Mike", 30, 1000, 1, "Sam"))
	if stats.Get(metrics.NodeActivations) == 0 {
		t.Error("NodeActivations not counted")
	}
}

func TestComparisonJoinOperators(t *testing.T) {
	// Join with > instead of = (non-equi join through the network).
	net, cs, _ := build(t, `
(literalize A x)
(literalize B y)
(p Gt (A ^x <v>) (B ^y > <v>) --> (halt))`)
	insert1(net, "A", 1, relation.Tuple{value.OfInt(5)})
	insert1(net, "B", 2, relation.Tuple{value.OfInt(3)})
	if cs.Len() != 0 {
		t.Fatal("3 > 5 should not match")
	}
	insert1(net, "B", 3, relation.Tuple{value.OfInt(9)})
	if keys := cs.Keys(); len(keys) != 1 || keys[0] != "Gt|1|3" {
		t.Fatalf("conflict set = %v", keys)
	}
}

func TestManyInstantiationsCrossProduct(t *testing.T) {
	net, cs, _ := build(t, `
(literalize A x)
(literalize B x)
(p Cross (A ^x <v>) (B ^x <v>) --> (halt))`)
	for i := 1; i <= 3; i++ {
		insert1(net, "A", relation.TupleID(i), relation.Tuple{value.OfInt(1)})
	}
	for i := 4; i <= 6; i++ {
		insert1(net, "B", relation.TupleID(i), relation.Tuple{value.OfInt(1)})
	}
	if cs.Len() != 9 {
		t.Fatalf("cross product size = %d, want 9", cs.Len())
	}
	delete1(net, "A", 1, nil)
	if cs.Len() != 6 {
		t.Fatalf("after delete = %d, want 6", cs.Len())
	}
}

func TestDeepChainPropagation(t *testing.T) {
	// A chain C1 ∧ C2 ∧ ... ∧ Cn as in Figure 1.
	const n = 8
	src := ""
	for i := 0; i < n; i++ {
		src += fmt.Sprintf("(literalize K%d v w)\n", i)
	}
	src += "(p Chain\n"
	src += "    (K0 ^v <x0> ^w <x1>)\n"
	for i := 1; i < n; i++ {
		src += fmt.Sprintf("    (K%d ^v <x%d> ^w <x%d>)\n", i, i, i+1)
	}
	src += "  --> (halt))"
	net, cs, _ := build(t, src)
	for i := 0; i < n; i++ {
		insert1(net, fmt.Sprintf("K%d", i), relation.TupleID(i+1), relation.Tuple{value.OfInt(int64(i)), value.OfInt(int64(i + 1))})
	}
	if cs.Len() != 1 {
		t.Fatalf("chain should complete: %v", cs.Keys())
	}
	// Break the middle link.
	delete1(net, "K4", 5, nil)
	if cs.Len() != 0 {
		t.Fatalf("broken chain should retract: %v", cs.Keys())
	}
}

func TestNameAndConflictSetAccessors(t *testing.T) {
	net, cs, _ := build(t, payrollSrc)
	if net.Name() != "rete" {
		t.Errorf("Name = %q", net.Name())
	}
	if net.ConflictSet() != cs {
		t.Error("ConflictSet accessor mismatch")
	}
}
