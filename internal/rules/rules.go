// Package rules compiles parsed OPS5-subset programs into the positional
// rule model shared by every matcher: condition elements with constant
// restrictions and variable tests, the inter-condition join graph, and the
// Related-Condition-Element (RCE) lists of the paper's matching-pattern
// algorithm (§4.2.1).
package rules

import (
	"fmt"
	"math/bits"
	"sort"

	"prodsys/internal/lang"
	"prodsys/internal/relation"
	"prodsys/internal/value"
)

// Bindings is a rule's slot vector: Bindings[s] holds the value bound to
// the variable Rule.Vars[s], the zero value (Nil) while it is unbound. A
// field holding Nil never binds, so Nil is never a bound value. Matching
// binds into one vector in place and undoes what it bound as it
// backtracks; nothing is cloned.
type Bindings []value.V

// Undo records which variable tests of one condition element bound their
// slot in one MatchWith or MatchPattern call: bit i stands for
// VarTests[i]. Unbind takes those bindings back.
type Undo uint64

// maxVarTests bounds a condition element's variable tests to the bits of
// an Undo.
const maxVarTests = 64

// DisjTest is a value disjunction on one attribute: the value must equal
// one of Vals (OPS5's << a b c >> syntax).
type DisjTest struct {
	Pos  int
	Vals []value.V
}

// Satisfies reports whether the tuple's attribute equals one of the
// disjunction's values.
func (d DisjTest) Satisfies(t relation.Tuple) bool {
	if d.Pos < 0 || d.Pos >= len(t) {
		return false
	}
	for _, v := range d.Vals {
		if value.Equal(t[d.Pos], v) {
			return true
		}
	}
	return false
}

// VarTest is one variable-involving predicate on a condition element's
// attribute: tuple[Pos] Op <Var>. Slot is Var's index in the rule's slot
// vector (Rule.Vars). When Binds is true this is the binding occurrence
// of Var within the rule (Op is then OpEq).
type VarTest struct {
	Pos   int
	Op    value.Op
	Var   string
	Slot  int
	Binds bool
}

// CE is a compiled condition element.
type CE struct {
	Rule  *Rule
	Index int // 0-based position within the rule's LHS; paper CEN = Index+1
	Class string
	// ClassID numbers Class densely within the rule set (literalize
	// order), so per-tuple indexes can key on an integer.
	ClassID int
	Schema  *relation.Schema
	Negated bool
	// Consts are the variable-free restrictions, checkable against a lone
	// tuple (the one-input nodes of a Rete network).
	Consts []relation.Restriction
	// Disj are value disjunctions (<< a b c >>), also variable-free.
	Disj []DisjTest
	// VarTests are the variable-involving predicates in source order.
	VarTests []VarTest
}

// CEN returns the paper's 1-based condition element number.
func (ce *CE) CEN() int { return ce.Index + 1 }

// String renders the condition element for diagnostics.
func (ce *CE) String() string {
	neg := ""
	if ce.Negated {
		neg = "-"
	}
	return fmt.Sprintf("%s%s/%d on %s", neg, ce.Rule.Name, ce.CEN(), ce.Class)
}

// MatchAlpha reports whether tuple t passes every variable-free
// restriction of the condition element, including value disjunctions.
// This is the test a Rete one-input node chain performs.
func (ce *CE) MatchAlpha(t relation.Tuple) bool {
	if !relation.SatisfiesAll(t, ce.Consts) {
		return false
	}
	for _, d := range ce.Disj {
		if !d.Satisfies(t) {
			return false
		}
	}
	return true
}

// MatchWith reports whether tuple t fully satisfies the condition element
// under bindings b, binding in place every free variable an equality test
// meets; the returned Undo names those bindings for Unbind. On failure b
// is left as it was. Alpha restrictions are re-checked. Variable tests
// are evaluated in source order: a test on a bound variable compares, an
// equality test on a free one binds it, and a non-equality test on a free
// variable fails closed (compilation rejects that use, unless an earlier
// condition element binds the variable).
func (ce *CE) MatchWith(t relation.Tuple, b Bindings) (Undo, bool) {
	return ce.match(t, b, false)
}

// MatchPattern matches tuple t against this condition element under the
// partial bindings of a matching pattern (§4.2): like MatchWith, except a
// non-equality test on an unbound variable is treated as satisfied — the
// pattern simply does not restrict that attribute yet.
func (ce *CE) MatchPattern(t relation.Tuple, b Bindings) (Undo, bool) {
	return ce.match(t, b, true)
}

func (ce *CE) match(t relation.Tuple, b Bindings, pattern bool) (Undo, bool) {
	if !ce.MatchAlpha(t) {
		return 0, false
	}
	var u Undo
	for i, vt := range ce.VarTests {
		v := t[vt.Pos]
		switch cur := b[vt.Slot]; {
		case !cur.IsNil():
			if !vt.Op.Apply(v, cur) {
				ce.Unbind(b, u)
				return 0, false
			}
		case vt.Op == value.OpEq:
			if v.IsNil() {
				ce.Unbind(b, u) // an unset field cannot bind
				return 0, false
			}
			b[vt.Slot] = v
			u |= 1 << i
		case !pattern:
			ce.Unbind(b, u)
			return 0, false
		}
	}
	return u, true
}

// Unbind clears the slots one MatchWith or MatchPattern call bound.
func (ce *CE) Unbind(b Bindings, u Undo) {
	for ; u != 0; u &= u - 1 {
		b[ce.VarTests[bits.TrailingZeros64(uint64(u))].Slot] = value.V{}
	}
}

// Restrictions derives the single-relation selection predicate for this
// condition element under bindings b: all constant tests plus every
// variable test whose variable is bound. free reports the variables that
// remain unbound (their tests are omitted).
func (ce *CE) Restrictions(b Bindings) (rs []relation.Restriction, free []string) {
	rs = append(rs, ce.Consts...)
	seen := map[string]bool{}
	for _, vt := range ce.VarTests {
		if v := b[vt.Slot]; !v.IsNil() {
			rs = append(rs, relation.Restriction{Pos: vt.Pos, Op: vt.Op, Val: v})
		} else if !seen[vt.Var] {
			seen[vt.Var] = true
			free = append(free, vt.Var)
		}
	}
	return rs, free
}

// Vars returns the distinct variables referenced by the condition
// element, in first-appearance order.
func (ce *CE) Vars() []string {
	var out []string
	seen := map[string]bool{}
	for _, vt := range ce.VarTests {
		if !seen[vt.Var] {
			seen[vt.Var] = true
			out = append(out, vt.Var)
		}
	}
	return out
}

// ExtractableVars returns the distinct variables whose value a tuple of
// this condition element determines — those with an equality test. A
// variable referenced only through an inequality (e.g. ^at {<b> <> <p>}
// references p) is constrained but not extractable: no binding for it can
// be projected from a matching tuple.
func (ce *CE) ExtractableVars() []string {
	var out []string
	seen := map[string]bool{}
	for _, vt := range ce.VarTests {
		if vt.Op == value.OpEq && !seen[vt.Var] {
			seen[vt.Var] = true
			out = append(out, vt.Var)
		}
	}
	return out
}

// RCE identifies a related condition element: another condition element of
// the same rule that shares at least one chain of variables with this one
// (the paper simply lists all other condition elements of the rule; we do
// the same).
type RCE struct {
	Class string
	CEN   int // 1-based, as in the paper
}

// BindPos locates a variable's binding occurrence: attribute Pos of the
// tuple matched by condition element CE.
type BindPos struct {
	CE, Pos int
}

// Rule is a compiled production.
type Rule struct {
	Name    string
	Index   int // position within the rule set
	CEs     []*CE
	Actions []*lang.Action
	// Specificity counts the total number of tests, used by conflict
	// resolution strategies that prefer more specific rules.
	Specificity int
	// Vars numbers the rule's variables densely: slot s of a Bindings
	// vector holds Vars[s]. LHS variables come first, in order of first
	// appearance, then those only an RHS bind introduces.
	Vars []string
	// BindAt gives each slot's binding occurrence: the first positive
	// condition element, in source order, that equality-binds it. A match
	// therefore determines its bindings, which are read from its tuples
	// on demand (Value, Fill). CE is -1 for a variable with no positive
	// binding occurrence: one local to a negated condition element, or
	// one an RHS bind introduces.
	BindAt []BindPos
	slots  map[string]int
}

// Slot returns the slot of the named variable.
func (r *Rule) Slot(name string) (int, bool) {
	s, ok := r.slots[name]
	return s, ok
}

// Value reads slot's binding in the match over tuples (aligned with
// r.CEs) from its binding occurrence; Nil when the slot has none.
func (r *Rule) Value(tuples []relation.Tuple, slot int) value.V {
	at := r.BindAt[slot]
	if at.CE < 0 {
		return value.V{}
	}
	return tuples[at.CE][at.Pos]
}

// Clear returns a slot vector for r with every slot unbound, reusing b's
// storage when it is large enough.
func (r *Rule) Clear(b Bindings) Bindings {
	if cap(b) < len(r.Vars) {
		return make(Bindings, len(r.Vars))
	}
	b = b[:len(r.Vars)]
	clear(b)
	return b
}

// Fill loads the bindings of the match over tuples into b, reusing its
// storage, and returns it: every slot reads its binding occurrence, and
// slots without a positive one are unbound.
func (r *Rule) Fill(b Bindings, tuples []relation.Tuple) Bindings {
	b = r.Clear(b)
	for s := range b {
		b[s] = r.Value(tuples, s)
	}
	return b
}

// NumPositive returns the count of non-negated condition elements.
func (r *Rule) NumPositive() int {
	n := 0
	for _, ce := range r.CEs {
		if !ce.Negated {
			n++
		}
	}
	return n
}

// RCEList returns the related condition elements of the CE at 0-based
// index i: every other condition element of the rule, in LHS order.
func (r *Rule) RCEList(i int) []RCE {
	out := make([]RCE, 0, len(r.CEs)-1)
	for j, ce := range r.CEs {
		if j == i {
			continue
		}
		out = append(out, RCE{Class: ce.Class, CEN: ce.CEN()})
	}
	return out
}

// SharedVars returns the variables shared between condition elements i
// and j.
func (r *Rule) SharedVars(i, j int) []string {
	inI := map[string]bool{}
	for _, v := range r.CEs[i].Vars() {
		inI[v] = true
	}
	var out []string
	for _, v := range r.CEs[j].Vars() {
		if inI[v] {
			out = append(out, v)
		}
	}
	return out
}

// String renders the rule name and shape.
func (r *Rule) String() string {
	return fmt.Sprintf("%s(%d CEs, %d actions)", r.Name, len(r.CEs), len(r.Actions))
}

// Set is a compiled rule set together with its class catalog.
type Set struct {
	Classes map[string]*relation.Schema
	Rules   []*Rule
	// ByClass indexes the condition elements defined on each class, the
	// contents of the paper's per-class COND relations.
	ByClass  map[string][]*CE
	byName   map[string]*Rule
	classIDs map[string]int
}

// RuleByName returns the named rule.
func (s *Set) RuleByName(name string) (*Rule, bool) {
	r, ok := s.byName[name]
	return r, ok
}

// ClassID returns the dense ID of the named class (CE.ClassID).
func (s *Set) ClassID(name string) (int, bool) {
	id, ok := s.classIDs[name]
	return id, ok
}

// ClassNames returns the declared class names in sorted order.
func (s *Set) ClassNames() []string {
	out := make([]string, 0, len(s.Classes))
	for n := range s.Classes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ResolveTerm evaluates a term of r under bindings b.
func (r *Rule) ResolveTerm(t lang.Term, b Bindings) (value.V, error) {
	if t.Kind == lang.TermConst {
		return t.Val, nil
	}
	if s, ok := r.slots[t.Var]; ok && s < len(b) && !b[s].IsNil() {
		return b[s], nil
	}
	return value.V{}, fmt.Errorf("unbound variable <%s>", t.Var)
}

// Subset returns the rule set restricted to the named rules, over the
// same class catalog and the same *Rule values, so rule indexes, class
// IDs and conflict-set keys are those of s.
func (s *Set) Subset(names map[string]bool) *Set {
	sub := &Set{Classes: s.Classes, ByClass: make(map[string][]*CE), byName: make(map[string]*Rule), classIDs: s.classIDs}
	for _, r := range s.Rules {
		if !names[r.Name] {
			continue
		}
		sub.Rules = append(sub.Rules, r)
		sub.byName[r.Name] = r
		for _, ce := range r.CEs {
			sub.ByClass[ce.Class] = append(sub.ByClass[ce.Class], ce)
		}
	}
	return sub
}
