package value

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		Nil: "nil", Int: "int", Float: "float", Str: "string", Sym: "symbol",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if got := Kind(99).String(); got != "Kind(99)" {
		t.Errorf("unknown kind = %q", got)
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if v := OfInt(42); v.Kind() != Int || v.AsInt() != 42 {
		t.Errorf("OfInt: %v", v)
	}
	if v := OfFloat(2.5); v.Kind() != Float || v.AsFloat() != 2.5 {
		t.Errorf("OfFloat: %v", v)
	}
	if v := OfString("abc"); v.Kind() != Str || v.AsString() != "abc" {
		t.Errorf("OfString: %v", v)
	}
	if v := OfSym("Emp"); v.Kind() != Sym || v.AsString() != "Emp" {
		t.Errorf("OfSym: %v", v)
	}
	var zero V
	if !zero.IsNil() || zero.Kind() != Nil {
		t.Errorf("zero value should be nil: %v", zero)
	}
}

func TestEqual(t *testing.T) {
	tests := []struct {
		a, b V
		want bool
	}{
		{OfInt(3), OfInt(3), true},
		{OfInt(3), OfInt(4), false},
		{OfInt(3), OfFloat(3.0), true},
		{OfFloat(3.5), OfFloat(3.5), true},
		{OfFloat(3.5), OfInt(3), false},
		{OfString("x"), OfString("x"), true},
		{OfString("x"), OfSym("x"), true},
		{OfSym("x"), OfSym("y"), false},
		{OfInt(3), OfString("3"), false},
		{V{}, V{}, false},
		{V{}, OfInt(0), false},
	}
	for _, tc := range tests {
		if got := Equal(tc.a, tc.b); got != tc.want {
			t.Errorf("Equal(%v, %v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestLessAndCompare(t *testing.T) {
	tests := []struct {
		a, b     V
		less, ok bool
	}{
		{OfInt(1), OfInt(2), true, true},
		{OfInt(2), OfInt(1), false, true},
		{OfInt(1), OfFloat(1.5), true, true},
		{OfFloat(0.5), OfInt(1), true, true},
		{OfString("a"), OfString("b"), true, true},
		{OfSym("a"), OfString("b"), true, true},
		{OfInt(1), OfString("a"), false, false},
		{V{}, OfInt(1), false, false},
		{OfFloat(math.NaN()), OfInt(1), false, false},
		{OfInt(1), OfFloat(math.NaN()), false, false},
		{OfFloat(math.NaN()), OfFloat(math.NaN()), false, false},
	}
	for _, tc := range tests {
		less, ok := Less(tc.a, tc.b)
		if less != tc.less || ok != tc.ok {
			t.Errorf("Less(%v, %v) = %v,%v want %v,%v", tc.a, tc.b, less, ok, tc.less, tc.ok)
		}
	}
	if cmp, ok := Compare(OfInt(5), OfInt(5)); !ok || cmp != 0 {
		t.Errorf("Compare equal = %d,%v", cmp, ok)
	}
	if cmp, ok := Compare(OfInt(4), OfInt(5)); !ok || cmp != -1 {
		t.Errorf("Compare less = %d,%v", cmp, ok)
	}
	if cmp, ok := Compare(OfInt(6), OfInt(5)); !ok || cmp != 1 {
		t.Errorf("Compare greater = %d,%v", cmp, ok)
	}
	if _, ok := Compare(OfInt(6), OfSym("a")); ok {
		t.Error("Compare across categories should not be ok")
	}
	if _, ok := Compare(OfFloat(math.NaN()), OfInt(0)); ok {
		t.Error("Compare with NaN should not be ok")
	}
	if OpGt.Apply(OfFloat(math.NaN()), OfInt(0)) || OpLe.Apply(OfFloat(math.NaN()), OfInt(0)) {
		t.Error("a range operator admitted NaN")
	}
}

func TestKeyNormalization(t *testing.T) {
	if OfFloat(3.0).Key() != OfInt(3).Key() {
		t.Error("Float(3).Key should equal Int(3).Key")
	}
	if OfFloat(3.5).Key() == OfInt(3).Key() {
		t.Error("Float(3.5).Key must differ from Int(3).Key")
	}
	if OfSym("x").Key() != OfString("x").Key() {
		t.Error("Sym/Str keys should collapse")
	}
	// Property: Equal(v, w) implies v.Key() == w.Key().
	for _, i := range []int64{0, 1, -1, 1 << 40, -(1 << 40)} {
		a, b := OfInt(i), OfFloat(float64(i))
		if Equal(a, b) && a.Key() != b.Key() {
			t.Errorf("Equal(%v,%v) but keys differ", a, b)
		}
	}
}

func TestOpApply(t *testing.T) {
	tests := []struct {
		op   Op
		a, b V
		want bool
	}{
		{OpEq, OfInt(1), OfInt(1), true},
		{OpEq, OfInt(1), OfInt(2), false},
		{OpNe, OfInt(1), OfInt(2), true},
		{OpNe, OfInt(1), OfSym("a"), true},
		{OpLt, OfInt(1), OfInt(2), true},
		{OpLe, OfInt(2), OfInt(2), true},
		{OpGt, OfInt(3), OfInt(2), true},
		{OpGe, OfInt(2), OfInt(2), true},
		{OpLt, OfInt(1), OfSym("a"), false},
		{OpGe, OfSym("b"), OfSym("a"), true},
	}
	for _, tc := range tests {
		if got := tc.op.Apply(tc.a, tc.b); got != tc.want {
			t.Errorf("%v.Apply(%v, %v) = %v, want %v", tc.op, tc.a, tc.b, got, tc.want)
		}
	}
}

func TestOpNegateFlipParse(t *testing.T) {
	for _, o := range []Op{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe} {
		if o.Negate().Negate() != o {
			t.Errorf("%v.Negate().Negate() != %v", o, o)
		}
		if o.Flip().Flip() != o {
			t.Errorf("%v.Flip().Flip() != %v", o, o)
		}
		op, ok := ParseOp(o.String())
		if !ok || op != o {
			t.Errorf("ParseOp(%q) = %v,%v", o.String(), op, ok)
		}
	}
	if _, ok := ParseOp("~"); ok {
		t.Error("ParseOp should reject unknown spellings")
	}
	if op, ok := ParseOp("!="); !ok || op != OpNe {
		t.Error("ParseOp(!=) should map to <>")
	}
	if got := Op(77).String(); got != "Op(77)" {
		t.Errorf("unknown op = %q", got)
	}
}

func TestOpSemanticsProperties(t *testing.T) {
	// For random integer pairs, Negate inverts Apply and Flip swaps operands.
	f := func(a, b int64) bool {
		va, vb := OfInt(a), OfInt(b)
		for _, o := range []Op{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe} {
			if o.Apply(va, vb) == o.Negate().Apply(va, vb) {
				return false
			}
			if o.Apply(va, vb) != o.Flip().Apply(vb, va) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEqualityProperties(t *testing.T) {
	// Equal is symmetric and consistent with Compare==0 on numerics.
	f := func(a, b int64) bool {
		va, vb := OfInt(a), OfInt(b)
		if Equal(va, vb) != Equal(vb, va) {
			return false
		}
		cmp, ok := Compare(va, vb)
		if !ok {
			return false
		}
		return (cmp == 0) == Equal(va, vb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestString(t *testing.T) {
	tests := []struct {
		v    V
		want string
	}{
		{OfInt(7), "7"},
		{OfFloat(2.5), "2.5"},
		{OfString("hi"), `"hi"`},
		{OfSym("Toy"), "Toy"},
		{V{}, "nil"},
	}
	for _, tc := range tests {
		if got := tc.v.String(); got != tc.want {
			t.Errorf("String(%v) = %q, want %q", tc.v.Kind(), got, tc.want)
		}
	}
}

func TestSameAs(t *testing.T) {
	if !OfInt(3).SameAs(OfInt(3)) {
		t.Error("identical ints should be SameAs")
	}
	if OfInt(3).SameAs(OfFloat(3)) {
		t.Error("Int(3) is not structurally same as Float(3)")
	}
}
