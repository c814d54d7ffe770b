package rules

import (
	"fmt"
	"strings"
	"testing"

	"prodsys/internal/lang"
	"prodsys/internal/relation"
	"prodsys/internal/value"
)

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

func compile(t *testing.T, src string) *Set {
	t.Helper()
	set, _, err := CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func emp(name string, age, salary, dno int64, mgr string) relation.Tuple {
	return relation.Tuple{
		value.OfSym(name), value.OfInt(age), value.OfInt(salary),
		value.OfInt(dno), value.OfSym(mgr),
	}
}

// vec builds r's slot vector from named values.
func vec(r *Rule, named map[string]value.V) Bindings {
	b := make(Bindings, len(r.Vars))
	for name, v := range named {
		s, ok := r.Slot(name)
		if !ok {
			panic("no variable " + name)
		}
		b[s] = v
	}
	return b
}

// get reads the named variable from r's slot vector b.
func get(r *Rule, b Bindings, name string) value.V {
	s, _ := r.Slot(name)
	return b[s]
}

func TestCompilePayroll(t *testing.T) {
	set := compile(t, payrollSrc)
	if len(set.Rules) != 2 || len(set.Classes) != 2 {
		t.Fatalf("rules=%d classes=%d", len(set.Rules), len(set.Classes))
	}
	r1, ok := set.RuleByName("R1")
	if !ok {
		t.Fatal("R1 missing")
	}
	if r1.NumPositive() != 2 {
		t.Errorf("R1 positives = %d", r1.NumPositive())
	}
	ce1 := r1.CEs[0]
	if len(ce1.Consts) != 1 || ce1.Consts[0].Pos != 0 {
		t.Errorf("R1 CE1 consts: %+v", ce1.Consts)
	}
	if len(ce1.VarTests) != 2 || !ce1.VarTests[0].Binds || !ce1.VarTests[1].Binds {
		t.Errorf("R1 CE1 var tests: %+v", ce1.VarTests)
	}
	ce2 := r1.CEs[1]
	// <M> and <S> are bound by CE1; <S1> binds here.
	var binds, compares int
	for _, vt := range ce2.VarTests {
		if vt.Binds {
			binds++
		} else {
			compares++
		}
	}
	if binds != 1 || compares != 2 {
		t.Errorf("R1 CE2 binds=%d compares=%d: %+v", binds, compares, ce2.VarTests)
	}
	// ByClass: Emp has 3 CEs (two in R1, one in R2), Dept has 1.
	if len(set.ByClass["Emp"]) != 3 || len(set.ByClass["Dept"]) != 1 {
		t.Errorf("ByClass: Emp=%d Dept=%d", len(set.ByClass["Emp"]), len(set.ByClass["Dept"]))
	}
	if names := set.ClassNames(); len(names) != 2 || names[0] != "Dept" {
		t.Errorf("ClassNames = %v", names)
	}
}

func TestRCEList(t *testing.T) {
	set := compile(t, `
(literalize A a1 a2 a3)
(literalize B b1 b2 b3)
(literalize C c1 c2 c3)
(p Rule-1
    (A ^a1 <x> ^a2 a ^a3 <z>)
    (B ^b1 <x> ^b2 <y> ^b3 b)
    (C ^c1 c ^c2 <y> ^c3 <z>)
  -->
    (halt))`)
	r, _ := set.RuleByName("Rule-1")
	// Paper Example 4: COND-A lists (B,2),(C,3); COND-B lists (A,1),(C,3).
	rceA := r.RCEList(0)
	if len(rceA) != 2 || rceA[0] != (RCE{"B", 2}) || rceA[1] != (RCE{"C", 3}) {
		t.Errorf("RCE(A) = %v", rceA)
	}
	rceB := r.RCEList(1)
	if len(rceB) != 2 || rceB[0] != (RCE{"A", 1}) || rceB[1] != (RCE{"C", 3}) {
		t.Errorf("RCE(B) = %v", rceB)
	}
	if got := r.SharedVars(0, 1); len(got) != 1 || got[0] != "x" {
		t.Errorf("SharedVars(A,B) = %v", got)
	}
	if got := r.SharedVars(1, 2); len(got) != 1 || got[0] != "y" {
		t.Errorf("SharedVars(B,C) = %v", got)
	}
	if got := r.SharedVars(0, 2); len(got) != 1 || got[0] != "z" {
		t.Errorf("SharedVars(A,C) = %v", got)
	}
}

func TestMatchAlpha(t *testing.T) {
	set := compile(t, payrollSrc)
	r1, _ := set.RuleByName("R1")
	ce1 := r1.CEs[0]
	if !ce1.MatchAlpha(emp("Mike", 30, 1000, 1, "Sam")) {
		t.Error("Mike should pass CE1 alpha")
	}
	if ce1.MatchAlpha(emp("Sam", 30, 1000, 1, "Pat")) {
		t.Error("Sam should fail CE1 alpha (name Mike)")
	}
}

func TestMatchWith(t *testing.T) {
	set := compile(t, payrollSrc)
	r1, _ := set.RuleByName("R1")
	ce1, ce2 := r1.CEs[0], r1.CEs[1]

	b := make(Bindings, len(r1.Vars))
	u1, ok := ce1.MatchWith(emp("Mike", 30, 1000, 1, "Sam"), b)
	if !ok {
		t.Fatal("CE1 should match Mike")
	}
	if !value.Equal(get(r1, b, "S"), value.OfInt(1000)) || !value.Equal(get(r1, b, "M"), value.OfSym("Sam")) {
		t.Fatalf("bindings = %v", b)
	}
	// Sam earns 900 < 1000: CE2 matches and binds S1 in place.
	u2, ok := ce2.MatchWith(emp("Sam", 50, 900, 1, "Pat"), b)
	if !ok {
		t.Fatal("CE2 should match Sam")
	}
	if !value.Equal(get(r1, b, "S1"), value.OfInt(900)) {
		t.Fatalf("S1 = %v", get(r1, b, "S1"))
	}
	// Unbind takes back exactly what CE2 bound.
	ce2.Unbind(b, u2)
	if !get(r1, b, "S1").IsNil() || get(r1, b, "S").IsNil() {
		t.Errorf("after undoing CE2: %v", b)
	}
	// Sam earning 1200 fails the < test, and a failed match binds nothing.
	if _, ok := ce2.MatchWith(emp("Sam", 50, 1200, 1, "Pat"), b); ok {
		t.Error("CE2 should reject a manager earning more")
	}
	if !get(r1, b, "S1").IsNil() {
		t.Error("failed MatchWith left a binding behind")
	}
	// Wrong name fails the join on <M>.
	if _, ok := ce2.MatchWith(emp("Pat", 50, 900, 1, "Joe"), b); ok {
		t.Error("CE2 should reject non-manager")
	}
	ce1.Unbind(b, u1)
	for s, v := range b {
		if !v.IsNil() {
			t.Errorf("slot %s still bound: %v", r1.Vars[s], v)
		}
	}
}

func TestMatchWithRejectsNilBinding(t *testing.T) {
	set := compile(t, payrollSrc)
	r1, _ := set.RuleByName("R1")
	tup := relation.Tuple{value.OfSym("Mike"), value.OfInt(30), value.V{}, value.OfInt(1), value.OfSym("Sam")}
	b := make(Bindings, len(r1.Vars))
	if _, ok := r1.CEs[0].MatchWith(tup, b); ok {
		t.Error("binding an unset (nil) field should fail")
	}
	for _, v := range b {
		if !v.IsNil() {
			t.Errorf("failed match left %v bound", b)
		}
	}
}

func TestRestrictions(t *testing.T) {
	set := compile(t, payrollSrc)
	r1, _ := set.RuleByName("R1")
	ce2 := r1.CEs[1]
	// With S and M bound, CE2's predicate is fully grounded.
	b := vec(r1, map[string]value.V{"S": value.OfInt(1000), "M": value.OfSym("Sam")})
	rs, free := ce2.Restrictions(b)
	if len(free) != 1 || free[0] != "S1" {
		t.Errorf("free = %v", free)
	}
	// name = Sam, salary < 1000 (the <S1> bind contributes nothing).
	sam := emp("Sam", 50, 900, 1, "Pat")
	if !relation.SatisfiesAll(sam, rs) {
		t.Errorf("Sam should satisfy restrictions %v", rs)
	}
	rich := emp("Sam", 50, 2000, 1, "Pat")
	if relation.SatisfiesAll(rich, rs) {
		t.Error("rich Sam should fail salary restriction")
	}
	// Unbound: only the const restriction applies.
	rs0, free0 := ce2.Restrictions(make(Bindings, len(r1.Vars)))
	if len(rs0) != 0 {
		t.Errorf("CE2 has no const restrictions, got %v", rs0)
	}
	if len(free0) != 3 {
		t.Errorf("free vars = %v", free0)
	}
}

// TestVarsAndSlots checks slot numbering: LHS variables in order of first
// appearance, then RHS binds; each slot's binding occurrence is its first
// positive equality test, and a negated element's local variable or an
// RHS bind has none. Value and Fill read bindings from a match's tuples.
func TestVarsAndSlots(t *testing.T) {
	set := compile(t, payrollSrc)
	r1, _ := set.RuleByName("R1")
	if vars := r1.CEs[0].Vars(); len(vars) != 2 || vars[0] != "S" || vars[1] != "M" {
		t.Errorf("Vars = %v", vars)
	}
	if got := r1.Vars; len(got) != 3 || got[0] != "S" || got[1] != "M" || got[2] != "S1" {
		t.Fatalf("R1 slots = %v", got)
	}
	want := []BindPos{{CE: 0, Pos: 2}, {CE: 0, Pos: 4}, {CE: 1, Pos: 2}}
	for s, at := range r1.BindAt {
		if at != want[s] {
			t.Errorf("BindAt[%s] = %+v, want %+v", r1.Vars[s], at, want[s])
		}
	}
	for _, ce := range r1.CEs {
		for _, vt := range ce.VarTests {
			if r1.Vars[vt.Slot] != vt.Var {
				t.Errorf("%s: test on <%s> has slot %d (%s)", ce, vt.Var, vt.Slot, r1.Vars[vt.Slot])
			}
		}
	}
	tuples := []relation.Tuple{emp("Mike", 30, 1000, 1, "Sam"), emp("Sam", 50, 900, 1, "Pat")}
	b := r1.Fill(nil, tuples)
	if !value.Equal(get(r1, b, "S"), value.OfInt(1000)) || !value.Equal(get(r1, b, "M"), value.OfSym("Sam")) ||
		!value.Equal(r1.Value(tuples, 2), value.OfInt(900)) {
		t.Errorf("Fill = %v", b)
	}

	set = compile(t, `(literalize A x) (literalize B y z)
(p R (A ^x <v>) - (B ^y <v> ^z <w>) --> (bind <k> 1) (make A ^x <k>))`)
	r, _ := set.RuleByName("R")
	if got := r.Vars; len(got) != 3 || got[0] != "v" || got[1] != "w" || got[2] != "k" {
		t.Fatalf("R slots = %v", got)
	}
	if r.BindAt[0] != (BindPos{CE: 0, Pos: 0}) || r.BindAt[1].CE != -1 || r.BindAt[2].CE != -1 {
		t.Errorf("R BindAt = %+v", r.BindAt)
	}
	b = r.Fill(b, []relation.Tuple{{value.OfInt(4)}, nil})
	if len(b) != 3 || b[0].AsInt() != 4 || !b[1].IsNil() || !b[2].IsNil() {
		t.Errorf("Fill with a negated element and a bind = %v", b)
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"unknown class in CE", `(p R (Nope ^x 1) --> (halt))`},
		{"unknown attr", `(literalize A x) (p R (A ^y 1) --> (halt))`},
		{"duplicate literalize", `(literalize A x) (literalize A y)`},
		{"duplicate rule", `(literalize A x) (p R (A ^x 1) --> (halt)) (p R (A ^x 2) --> (halt))`},
		{"unbound nonEq var", `(literalize A x) (p R (A ^x > <v>) --> (halt))`},
		{"all negated", `(literalize A x) (p R - (A ^x 1) --> (halt))`},
		{"neg-local var used later", `(literalize A x) (literalize B y) (p R - (B ^y <v>) (A ^x <v>) --> (halt))`},
		{"make unknown class", `(literalize A x) (p R (A ^x 1) --> (make Z ^q 1))`},
		{"make unknown attr", `(literalize A x) (p R (A ^x 1) --> (make A ^q 1))`},
		{"make unbound var", `(literalize A x) (p R (A ^x 1) --> (make A ^x <v>))`},
		{"remove out of range", `(literalize A x) (p R (A ^x 1) --> (remove 2))`},
		{"remove negated CE", `(literalize A x) (literalize B y) (p R (A ^x 1) - (B ^y 1) --> (remove 2))`},
		{"modify unknown attr", `(literalize A x) (p R (A ^x 1) --> (modify 1 ^q 2))`},
		{"modify unbound var", `(literalize A x) (p R (A ^x 1) --> (modify 1 ^x <v>))`},
		{"write unbound var", `(literalize A x) (p R (A ^x 1) --> (write <v>))`},
		{"bind unbound term", `(literalize A x) (p R (A ^x 1) --> (bind <y> <v>))`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := CompileSource(tc.src); err == nil {
				t.Errorf("CompileSource(%q) should fail", tc.src)
			}
		})
	}
}

// TestVarTestLimit checks compilation bounds a condition element's
// variable tests to the bits of an Undo.
func TestVarTestLimit(t *testing.T) {
	ce := func(n int) string {
		var b strings.Builder
		b.WriteString("(literalize A x) (p R (A")
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, " ^x <v%d>", i)
		}
		b.WriteString(") --> (halt))")
		return b.String()
	}
	if _, _, err := CompileSource(ce(maxVarTests)); err != nil {
		t.Fatalf("%d variable tests should compile: %v", maxVarTests, err)
	}
	if _, _, err := CompileSource(ce(maxVarTests + 1)); err == nil {
		t.Fatalf("%d variable tests should not compile", maxVarTests+1)
	}
}

func TestBindMakesVarAvailable(t *testing.T) {
	src := `(literalize A x)
(p R (A ^x <v>) --> (bind <w> 5) (make A ^x <w>))`
	if _, _, err := CompileSource(src); err != nil {
		t.Fatalf("bind-then-use should compile: %v", err)
	}
}

func TestNegatedCELocalVarsAllowedWithinCE(t *testing.T) {
	// A variable may bind and be tested inside the same negated CE.
	src := `(literalize A x) (literalize B y z)
(p R (A ^x <v>) - (B ^y <v> ^z <w>) --> (halt))`
	set := compile(t, src)
	r, _ := set.RuleByName("R")
	if !r.CEs[1].Negated {
		t.Fatal("CE2 should be negated")
	}
}

func TestFactTuple(t *testing.T) {
	set := compile(t, `(literalize Emp name age salary)`)
	prog, err := lang.Parse(`(Emp Mike 30) (Emp ^salary 900 ^name Sam)`)
	if err != nil {
		t.Fatal(err)
	}
	cls, tup, err := FactTuple(set, prog.Facts[0])
	if err != nil || cls != "Emp" {
		t.Fatal(err)
	}
	if tup[0].AsString() != "Mike" || tup[1].AsInt() != 30 || !tup[2].IsNil() {
		t.Errorf("positional tuple = %v", tup)
	}
	_, tup2, err := FactTuple(set, prog.Facts[1])
	if err != nil {
		t.Fatal(err)
	}
	if tup2[0].AsString() != "Sam" || !tup2[1].IsNil() || tup2[2].AsInt() != 900 {
		t.Errorf("attr tuple = %v", tup2)
	}
	// Errors.
	bad, _ := lang.Parse(`(Nope 1) (Emp 1 2 3 4) (Emp ^zz 1)`)
	for i, f := range bad.Facts {
		if _, _, err := FactTuple(set, f); err == nil {
			t.Errorf("fact %d should fail", i)
		}
	}
}

func TestBuildDB(t *testing.T) {
	set := compile(t, payrollSrc)
	db := relation.NewDB(nil)
	if err := BuildDB(set, db); err != nil {
		t.Fatal(err)
	}
	empRel, ok := db.Get("Emp")
	if !ok {
		t.Fatal("Emp relation missing")
	}
	// name has a const eq test, dno and manager/name have var eq tests.
	if !empRel.HasIndex(0) {
		t.Error("Emp.name should be indexed")
	}
	if !empRel.HasIndex(3) {
		t.Error("Emp.dno should be indexed")
	}
	deptRel := db.MustGet("Dept")
	if !deptRel.HasIndex(0) {
		t.Error("Dept.dno should be indexed")
	}
	// BuildDB on a non-empty catalog fails on duplicates.
	if err := BuildDB(set, db); err == nil {
		t.Error("duplicate BuildDB should fail")
	}
}

// TestBuildIndexesOrderedOnlyWhereRanged checks the ordered index side is
// requested only where a range probe can reach it: a range constant or
// variable test, or the equality position of a variable another
// condition element compares with a range operator.
func TestBuildIndexesOrderedOnlyWhereRanged(t *testing.T) {
	set := compile(t, `
(literalize Probe lo hi)
(literalize K v w)
(literalize Emp salary dno)
(p window (Probe ^lo <l> ^hi <h>) (K ^v {> <l> < <h>} ^w <x>) --> (halt))
(p band (Emp ^salary > 500 ^dno <d>) (K ^w <d>) --> (halt))`)
	db := relation.NewDB(nil)
	if err := BuildDB(set, db); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		class   string
		pos     int
		ordered bool
	}{
		{"Probe", 0, true}, // <l> is range-compared by K
		{"Probe", 1, true}, // <h> likewise
		{"K", 0, true},     // the range variable tests themselves
		{"K", 1, false},    // equality joins only
		{"Emp", 0, true},   // range constant
		{"Emp", 1, false},  // equality join only
	} {
		rel := db.MustGet(c.class)
		if !rel.HasIndex(c.pos) {
			t.Errorf("%s #%d should be indexed", c.class, c.pos)
		}
		if got := rel.HasOrderedIndex(c.pos); got != c.ordered {
			t.Errorf("%s #%d ordered = %v, want %v", c.class, c.pos, got, c.ordered)
		}
	}
}

func TestResolveTerm(t *testing.T) {
	set := compile(t, `(literalize A x y) (p R (A ^x <x> ^y <y>) --> (halt))`)
	r, _ := set.RuleByName("R")
	b := vec(r, map[string]value.V{"x": value.OfInt(7)})
	v, err := r.ResolveTerm(lang.VarTerm("x"), b)
	if err != nil || v.AsInt() != 7 {
		t.Fatalf("ResolveTerm var: %v %v", v, err)
	}
	v, err = r.ResolveTerm(lang.ConstTerm(value.OfSym("k")), nil)
	if err != nil || v.AsString() != "k" {
		t.Fatalf("ResolveTerm const: %v %v", v, err)
	}
	if _, err := r.ResolveTerm(lang.VarTerm("y"), b); err == nil {
		t.Error("unbound var should error")
	}
	if _, err := r.ResolveTerm(lang.VarTerm("zz"), b); err == nil {
		t.Error("unknown var should error")
	}
}

func TestCENAndStrings(t *testing.T) {
	set := compile(t, payrollSrc)
	r1, _ := set.RuleByName("R1")
	if r1.CEs[0].CEN() != 1 || r1.CEs[1].CEN() != 2 {
		t.Error("CEN should be 1-based")
	}
	if r1.String() == "" || r1.CEs[0].String() == "" {
		t.Error("String methods should render")
	}
	if r1.Specificity != 6 {
		t.Errorf("R1 specificity = %d, want 6", r1.Specificity)
	}
}

func TestMatchWithEmptyVarTests(t *testing.T) {
	set := compile(t, `(literalize A x) (p R (A ^x 1) --> (halt))`)
	r, _ := set.RuleByName("R")
	u, ok := r.CEs[0].MatchWith(relation.Tuple{value.OfInt(1)}, nil)
	if !ok || u != 0 || len(r.Vars) != 0 {
		t.Fatalf("const-only CE match: %v %v", u, ok)
	}
}
