// Package rules compiles parsed OPS5-subset programs into the positional
// rule model shared by every matcher: condition elements with constant
// restrictions and variable tests, the inter-condition join graph, and the
// Related-Condition-Element (RCE) lists of the paper's matching-pattern
// algorithm (§4.2.1).
package rules

import (
	"fmt"
	"sort"
	"strings"

	"prodsys/internal/lang"
	"prodsys/internal/relation"
	"prodsys/internal/value"
)

// Bindings maps variable names to their bound values during matching.
type Bindings map[string]value.V

// Clone copies the bindings.
func (b Bindings) Clone() Bindings {
	out := make(Bindings, len(b))
	for k, v := range b {
		out[k] = v
	}
	return out
}

// Equal reports whether two binding sets bind the same variables to equal
// values.
func (b Bindings) Equal(o Bindings) bool {
	if len(b) != len(o) {
		return false
	}
	for k, v := range b {
		w, ok := o[k]
		if !ok || !value.Equal(v, w) {
			return false
		}
	}
	return true
}

// Key renders the bindings canonically for deduplication.
func (b Bindings) Key() string {
	names := make([]string, 0, len(b))
	for k := range b {
		names = append(names, k)
	}
	sort.Strings(names)
	var sb strings.Builder
	for i, k := range names {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(k)
		sb.WriteByte('=')
		sb.WriteString(b[k].Key().String())
	}
	return sb.String()
}

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
// attribute: tuple[Pos] Op <Var>. When Binds is true this is the binding
// occurrence of Var within the rule (Op is then OpEq).
type VarTest struct {
	Pos   int
	Op    value.Op
	Var   string
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

// MatchWith extends bindings b (not mutated) so that tuple t fully
// satisfies the condition element, or reports failure. Alpha restrictions
// are re-checked. Variable tests are evaluated in source order: a binding
// occurrence binds when the variable is still free and compares otherwise;
// a non-equality test requires the variable bound (by an earlier condition
// element or an earlier atom of this one).
func (ce *CE) MatchWith(t relation.Tuple, b Bindings) (Bindings, bool) {
	if !ce.MatchAlpha(t) {
		return nil, false
	}
	out := b
	cloned := false
	for _, vt := range ce.VarTests {
		cur, bound := out[vt.Var]
		switch {
		case vt.Op == value.OpEq && !bound:
			if t[vt.Pos].IsNil() {
				return nil, false // unset field cannot bind
			}
			if !cloned {
				out = out.Clone()
				cloned = true
			}
			out[vt.Var] = t[vt.Pos]
		case bound:
			if !vt.Op.Apply(t[vt.Pos], cur) {
				return nil, false
			}
		default:
			// Non-equality test on an unbound variable: compilation rejects
			// this, so reaching here means inconsistent use; fail closed.
			return nil, false
		}
	}
	if !cloned && len(ce.VarTests) > 0 {
		out = out.Clone()
	} else if out == nil {
		out = Bindings{}
	}
	return out, true
}

// MatchPattern matches tuple t against this condition element under the
// partial bindings of a matching pattern (§4.2): like MatchWith, except a
// non-equality test on an unbound variable is treated as satisfied — the
// pattern simply does not restrict that attribute yet. An equality test
// on an unbound variable binds it. The returned bindings extend b.
func (ce *CE) MatchPattern(t relation.Tuple, b Bindings) (Bindings, bool) {
	if !ce.MatchAlpha(t) {
		return nil, false
	}
	out := b
	cloned := false
	for _, vt := range ce.VarTests {
		cur, bound := out[vt.Var]
		switch {
		case bound:
			if !vt.Op.Apply(t[vt.Pos], cur) {
				return nil, false
			}
		case vt.Op == value.OpEq:
			if t[vt.Pos].IsNil() {
				return nil, false
			}
			if !cloned {
				out = out.Clone()
				cloned = true
			}
			out[vt.Var] = t[vt.Pos]
		default:
			// Unbound non-equality test: unconstrained in the pattern.
		}
	}
	if !cloned {
		out = out.Clone()
	}
	return out, true
}

// Restrictions derives the single-relation selection predicate for this
// condition element under bindings b: all constant tests plus every
// variable test whose variable is bound. free reports the variables that
// remain unbound (their tests are omitted).
func (ce *CE) Restrictions(b Bindings) (rs []relation.Restriction, free []string) {
	rs = append(rs, ce.Consts...)
	seen := map[string]bool{}
	for _, vt := range ce.VarTests {
		if v, ok := b[vt.Var]; ok {
			rs = append(rs, relation.Restriction{Pos: vt.Pos, Op: vt.Op, Val: v})
		} else if !seen[vt.Var] {
			seen[vt.Var] = true
			free = append(free, vt.Var)
		}
	}
	return rs, free
}

// BindingsFromTuple extracts this CE's variable bindings from a tuple
// already known to match it (binding occurrences only).
func (ce *CE) BindingsFromTuple(t relation.Tuple) Bindings {
	b := Bindings{}
	for _, vt := range ce.VarTests {
		if vt.Binds && !t[vt.Pos].IsNil() {
			b[vt.Var] = t[vt.Pos]
		}
	}
	return b
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

// Rule is a compiled production.
type Rule struct {
	Name    string
	Index   int // position within the rule set
	CEs     []*CE
	Actions []*lang.Action
	// Specificity counts the total number of tests, used by conflict
	// resolution strategies that prefer more specific rules.
	Specificity int
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

// ResolveTerm evaluates a term under bindings.
func ResolveTerm(t lang.Term, b Bindings) (value.V, error) {
	if t.Kind == lang.TermConst {
		return t.Val, nil
	}
	v, ok := b[t.Var]
	if !ok {
		return value.V{}, fmt.Errorf("unbound variable <%s>", t.Var)
	}
	return v, nil
}
