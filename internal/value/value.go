// Package value implements the typed scalar values that populate working
// memory tuples and condition-element restrictions.
//
// OPS5 working-memory elements carry symbols, numbers and strings in their
// attribute fields; the DBMS implementation of the paper stores the same
// values in relation columns and in COND-relation matching patterns. A
// value is immutable once constructed.
package value

import (
	"fmt"
	"strconv"
)

// Kind discriminates the dynamic type of a V.
type Kind uint8

// The value kinds. Nil is the zero value and marks an absent/unset field;
// it never compares equal to anything, including itself, except through
// SameAs.
const (
	Nil Kind = iota
	Int
	Float
	Str
	Sym
)

// String returns the kind name for diagnostics.
func (k Kind) String() string {
	switch k {
	case Nil:
		return "nil"
	case Int:
		return "int"
	case Float:
		return "float"
	case Str:
		return "string"
	case Sym:
		return "symbol"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// V is a single typed value. The zero V is the nil value. V is comparable
// and may be used as a map key, but map-key identity distinguishes Int(3)
// from Float(3); use Key to normalize before hashing when OPS5 numeric
// equality semantics are required.
type V struct {
	kind Kind
	i    int64
	f    float64
	s    string
}

// OfInt returns an integer value.
func OfInt(i int64) V { return V{kind: Int, i: i} }

// OfFloat returns a floating-point value.
func OfFloat(f float64) V { return V{kind: Float, f: f} }

// OfString returns a string value.
func OfString(s string) V { return V{kind: Str, s: s} }

// OfSym returns a symbol value. Symbols compare equal to strings with the
// same spelling, mirroring OPS5's treatment of quoted and bare atoms.
func OfSym(s string) V { return V{kind: Sym, s: s} }

// Kind reports the value's dynamic type.
func (v V) Kind() Kind { return v.kind }

// IsNil reports whether v is the nil (absent) value.
func (v V) IsNil() bool { return v.kind == Nil }

// AsInt returns the integer payload; valid only when Kind() == Int.
func (v V) AsInt() int64 { return v.i }

// AsFloat returns the float payload; valid only when Kind() == Float.
func (v V) AsFloat() float64 { return v.f }

// AsString returns the string payload of a Str or Sym value.
func (v V) AsString() string { return v.s }

// IsNaN reports whether v is a Float holding NaN, which orders and
// equals nothing, itself included.
func (v V) IsNaN() bool { return v.kind == Float && v.f != v.f }

// IsNumeric reports whether v is an Int or Float.
func (v V) IsNumeric() bool { return v.kind == Int || v.kind == Float }

// isTextual reports whether v is a Str or Sym.
func (v V) isTextual() bool { return v.kind == Str || v.kind == Sym }

// num returns the value as a float64 for cross-type numeric comparison.
func (v V) num() float64 {
	if v.kind == Int {
		return float64(v.i)
	}
	return v.f
}

// Key returns a canonical form of v suitable for hash-map keys under OPS5
// equality: floats holding an exactly-representable integer collapse to
// Int, and symbols collapse to Str. Two values v, w with Equal(v, w) have
// v.Key() == w.Key().
func (v V) Key() V {
	switch v.kind {
	case Float:
		if i := int64(v.f); float64(i) == v.f {
			return V{kind: Int, i: i}
		}
		return v
	case Sym:
		return V{kind: Str, s: v.s}
	default:
		return v
	}
}

// SameAs reports structural identity (same kind and payload), which is
// stricter than Equal.
func (v V) SameAs(w V) bool { return v == w }

// Equal reports OPS5 equality: numerics compare numerically across
// Int/Float, and Str/Sym compare by spelling. Nil is equal to nothing.
func Equal(v, w V) bool {
	switch {
	case v.kind == Nil || w.kind == Nil:
		return false
	case v.IsNumeric() && w.IsNumeric():
		if v.kind == Int && w.kind == Int {
			return v.i == w.i
		}
		return v.num() == w.num()
	case v.isTextual() && w.isTextual():
		return v.s == w.s
	default:
		return false
	}
}

// Less reports whether v orders before w. Only like-category values are
// ordered; comparing a number with a string, or NaN with anything,
// yields ok == false.
func Less(v, w V) (less, ok bool) {
	switch {
	case v.IsNumeric() && w.IsNumeric():
		if v.kind == Int && w.kind == Int {
			return v.i < w.i, true
		}
		if v.IsNaN() || w.IsNaN() {
			return false, false
		}
		return v.num() < w.num(), true
	case v.isTextual() && w.isTextual():
		return v.s < w.s, true
	default:
		return false, false
	}
}

// Compare returns -1, 0, or +1 when v and w are comparable, with ok
// reporting comparability.
func Compare(v, w V) (cmp int, ok bool) {
	if Equal(v, w) {
		return 0, true
	}
	less, ok := Less(v, w)
	if !ok {
		return 0, false
	}
	if less {
		return -1, true
	}
	return 1, true
}

// Op is a comparison operator appearing in a condition-element restriction.
type Op uint8

// The comparison operators of the OPS5 subset.
const (
	OpEq Op = iota // =
	OpNe           // <>
	OpLt           // <
	OpLe           // <=
	OpGt           // >
	OpGe           // >=
)

// String returns the OPS5 spelling of the operator.
func (o Op) String() string {
	switch o {
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Negate returns the complementary operator (= ↔ <>, < ↔ >=, …).
func (o Op) Negate() Op {
	switch o {
	case OpEq:
		return OpNe
	case OpNe:
		return OpEq
	case OpLt:
		return OpGe
	case OpLe:
		return OpGt
	case OpGt:
		return OpLe
	case OpGe:
		return OpLt
	}
	return o
}

// Flip returns the operator with its operands exchanged (a < b ⇒ b > a).
func (o Op) Flip() Op {
	switch o {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	default:
		return o
	}
}

// Apply evaluates "v o w". Incomparable operands satisfy only OpNe.
func (o Op) Apply(v, w V) bool {
	switch o {
	case OpEq:
		return Equal(v, w)
	case OpNe:
		return !Equal(v, w)
	}
	cmp, ok := Compare(v, w)
	if !ok {
		return false
	}
	switch o {
	case OpLt:
		return cmp < 0
	case OpLe:
		return cmp <= 0
	case OpGt:
		return cmp > 0
	case OpGe:
		return cmp >= 0
	}
	return false
}

// ParseOp parses an operator spelling; ok is false for unknown spellings.
func ParseOp(s string) (Op, bool) {
	switch s {
	case "=":
		return OpEq, true
	case "<>", "!=":
		return OpNe, true
	case "<":
		return OpLt, true
	case "<=":
		return OpLe, true
	case ">":
		return OpGt, true
	case ">=":
		return OpGe, true
	default:
		return OpEq, false
	}
}

// String renders the value in OPS5-ish literal syntax.
func (v V) String() string {
	switch v.kind {
	case Nil:
		return "nil"
	case Int:
		return strconv.FormatInt(v.i, 10)
	case Float:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case Str:
		return strconv.Quote(v.s)
	case Sym:
		return v.s
	default:
		return "?"
	}
}
