package quel

import (
	"fmt"
	"slices"

	"prodsys/internal/lang"
	"prodsys/internal/value"
)

// Translator lowers QUEL qualifications into OPS5 condition elements. It
// turns ALWAYS-tagged commands into productions, the §2.3 trigger
// mechanism: "Triggers are formed by tagging any QUEL command with the
// keyword ALWAYS. Such tagged commands conceptually appear to run
// indefinitely." Ad-hoc statements go through the same lowering (see
// Interp).
type Translator struct {
	// Ranges maps declared range variables to their relations.
	Ranges map[string]string
	// Classes maps class name → attribute list, for attribute checking.
	Classes map[string][]string
	n       int
}

// NewTranslator builds a translator over the class catalog.
func NewTranslator(classes map[string][]string) *Translator {
	return &Translator{Ranges: map[string]string{}, Classes: classes}
}

// DeclareRange records a range statement.
func (tr *Translator) DeclareRange(v, class string) error {
	if _, ok := tr.Classes[class]; !ok {
		return fmt.Errorf("quel: range over unknown relation %s", class)
	}
	tr.Ranges[v] = class
	return nil
}

// classOf resolves a variable: a declared range variable, or a class name
// used as its own implicit range variable (the paper writes
// "replace ALWAYS EMP (...)" with EMP both relation and variable).
func (tr *Translator) classOf(v string) (string, error) {
	if cls, ok := tr.Ranges[v]; ok {
		return cls, nil
	}
	if _, ok := tr.Classes[v]; ok {
		return v, nil
	}
	return "", fmt.Errorf("quel: unknown range variable %q", v)
}

// attrPos returns attr's position in class.
func (tr *Translator) attrPos(class, attr string) (int, error) {
	for i, a := range tr.Classes[class] {
		if a == attr {
			return i, nil
		}
	}
	return -1, fmt.Errorf("quel: relation %s has no attribute %s", class, attr)
}

// builder lowers one statement into condition elements, one per range
// variable, created in first-mention order.
type builder struct {
	tr     *Translator
	ces    []*lang.CondElem
	byVar  map[string]int    // range variable → index in ces
	bindOf map[string]string // "var.attr" → OPS5 variable name
	nvar   int
	// target is the variable whose CE is emitted last (remove/modify
	// targets); "" keeps first-mention order throughout.
	target string

	// adhoc marks a statement executed once rather than compiled into a
	// trigger. Its constant-only conjuncts are decided here (never is set
	// when one is false), and its attribute-vs-attribute <> conjuncts are
	// kept in residual, to be checked on the joined tuples: a CE binding
	// cannot hold a nil attribute, which <> accepts.
	adhoc    bool
	never    bool
	residual []Cond
}

func (tr *Translator) newBuilder(target string) *builder {
	return &builder{tr: tr, byVar: map[string]int{}, bindOf: map[string]string{}, target: target}
}

// ceFor returns (creating on demand) the CE of a range variable.
func (b *builder) ceFor(v string) (*lang.CondElem, error) {
	if i, ok := b.byVar[v]; ok {
		return b.ces[i], nil
	}
	cls, err := b.tr.classOf(v)
	if err != nil {
		return nil, err
	}
	ce := &lang.CondElem{Class: cls}
	b.byVar[v] = len(b.ces)
	b.ces = append(b.ces, ce)
	return ce, nil
}

// order is v's position in the emitted LHS: the target goes last.
func (b *builder) order(v string) int {
	if v == b.target {
		return len(b.ces)
	}
	return b.byVar[v]
}

// ceWith returns v's CE after checking that its class has attr.
func (b *builder) ceWith(v, attr string) (*lang.CondElem, error) {
	ce, err := b.ceFor(v)
	if err != nil {
		return nil, err
	}
	if _, err := b.tr.attrPos(ce.Class, attr); err != nil {
		return nil, err
	}
	return ce, nil
}

// test appends the atom "v.attr op term" to v's CE.
func (b *builder) test(v, attr string, op value.Op, term lang.Term) error {
	ce, err := b.ceWith(v, attr)
	if err != nil {
		return err
	}
	ce.Tests = append(ce.Tests, lang.AttrTest{Attr: attr, Atoms: []lang.TestAtom{{Op: op, Term: term}}})
	return nil
}

// bind ensures var.attr is equality-bound to an OPS5 variable and returns
// the variable's term.
func (b *builder) bind(v, attr string) (lang.Term, error) {
	key := v + "." + attr
	if name, ok := b.bindOf[key]; ok {
		return lang.VarTerm(name), nil
	}
	name := fmt.Sprintf("q%d", b.nvar)
	if err := b.test(v, attr, value.OpEq, lang.VarTerm(name)); err != nil {
		return lang.Term{}, err
	}
	b.nvar++
	b.bindOf[key] = name
	return lang.VarTerm(name), nil
}

// mention creates an operand's CE and checks its attribute.
func (b *builder) mention(o Operand) error {
	if !o.IsRef() {
		return nil
	}
	_, err := b.ceWith(o.Var, o.Attr)
	return err
}

// addQuals lowers the qualification conjuncts into the CEs.
func (b *builder) addQuals(quals []Cond) error {
	for _, c := range quals {
		if err := b.addQual(c); err != nil {
			return err
		}
	}
	return nil
}

func (b *builder) addQual(c Cond) error {
	switch {
	case c.Left.IsRef() && !c.Right.IsRef():
		return b.test(c.Left.Var, c.Left.Attr, c.Op, lang.ConstTerm(c.Right.Const))
	case !c.Left.IsRef() && c.Right.IsRef():
		return b.addQual(Cond{Left: c.Right, Op: c.Op.Flip(), Right: c.Left})
	case c.Left.IsRef() && c.Right.IsRef():
		if err := b.mention(c.Left); err != nil {
			return err
		}
		if err := b.mention(c.Right); err != nil {
			return err
		}
		if b.adhoc && c.Op == value.OpNe {
			b.residual = append(b.residual, c)
			return nil
		}
		// Bind the left side and test the right with the flipped operator
		// (right.attr flip(op) left ⟺ left.attr op right.attr). The sides
		// swap when the right side's CE is emitted first and either the
		// left side is the target or the operator is not = (a test other
		// than = reads a variable an earlier CE must bind).
		if b.order(c.Right.Var) < b.order(c.Left.Var) && (c.Left.Var == b.target || c.Op != value.OpEq) {
			c = Cond{Left: c.Right, Op: c.Op.Flip(), Right: c.Left}
		}
		bound, err := b.bind(c.Left.Var, c.Left.Attr)
		if err != nil {
			return err
		}
		return b.test(c.Right.Var, c.Right.Attr, c.Op.Flip(), bound)
	case b.adhoc:
		b.never = b.never || !c.Op.Apply(c.Left.Const, c.Right.Const)
		return nil
	default:
		return fmt.Errorf("quel: qualification compares two constants")
	}
}

// term lowers an assignment source: a constant, or a bound var.attr.
func (b *builder) term(o Operand) (lang.Term, error) {
	if o.IsRef() {
		return b.bind(o.Var, o.Attr)
	}
	return lang.ConstTerm(o.Const), nil
}

// lhs returns the CEs in emission order: first mention, target last.
func (b *builder) lhs() []*lang.CondElem {
	t, ok := b.byVar[b.target]
	if !ok {
		return b.ces
	}
	return append(slices.Delete(slices.Clone(b.ces), t, t+1), b.ces[t])
}

// trigger names the next ALWAYS production.
func (tr *Translator) trigger(lhs []*lang.CondElem, act *lang.Action) *lang.Production {
	tr.n++
	return &lang.Production{Name: fmt.Sprintf("quel-always-%d", tr.n), LHS: lhs, RHS: []*lang.Action{act}}
}

// TranslateAlways lowers one ALWAYS command into the productions
// implementing it. A replace with several assignments yields one
// production per assignment (each needs its own inequality guard for
// quiescence).
func (tr *Translator) TranslateAlways(st *Stmt) ([]*lang.Production, error) {
	if !st.Always {
		return nil, fmt.Errorf("quel: statement is not tagged ALWAYS")
	}
	switch st.Kind {
	case StmtReplace:
		return tr.translateReplaceAlways(st)
	case StmtDelete:
		return tr.translateDeleteAlways(st)
	case StmtAppend:
		return tr.translateAppendAlways(st)
	default:
		return nil, fmt.Errorf("quel: %s cannot be tagged ALWAYS", st.Kind)
	}
}

func (tr *Translator) translateReplaceAlways(st *Stmt) ([]*lang.Production, error) {
	var out []*lang.Production
	for _, as := range st.Assigns {
		b := tr.newBuilder(st.Var)
		// Lower the assignment source first so its binder CE precedes
		// the target.
		rhs, err := b.term(as.Expr)
		if err != nil {
			return nil, err
		}
		if err := b.addQuals(st.Quals); err != nil {
			return nil, err
		}
		// Guard: fire only while the attribute differs from the source.
		if err := b.test(st.Var, as.Attr, value.OpNe, rhs); err != nil {
			return nil, err
		}
		lhs := b.lhs()
		out = append(out, tr.trigger(lhs, &lang.Action{Kind: lang.ActModify, CE: len(lhs),
			Assigns: []lang.FieldAssign{{Attr: as.Attr, Term: rhs}}}))
	}
	return out, nil
}

func (tr *Translator) translateDeleteAlways(st *Stmt) ([]*lang.Production, error) {
	b := tr.newBuilder(st.Var)
	if err := b.addQuals(st.Quals); err != nil {
		return nil, err
	}
	if _, err := b.ceFor(st.Var); err != nil {
		return nil, err
	}
	lhs := b.lhs()
	return []*lang.Production{tr.trigger(lhs, &lang.Action{Kind: lang.ActRemove, CE: len(lhs)})}, nil
}

func (tr *Translator) translateAppendAlways(st *Stmt) ([]*lang.Production, error) {
	if _, ok := tr.Classes[st.Class]; !ok {
		return nil, fmt.Errorf("quel: append to unknown relation %s", st.Class)
	}
	b := tr.newBuilder("")
	// Resolve assignment sources (binding range variables as needed).
	assigns := make([]lang.FieldAssign, len(st.Assigns))
	for i, as := range st.Assigns {
		if _, err := tr.attrPos(st.Class, as.Attr); err != nil {
			return nil, err
		}
		term, err := b.term(as.Expr)
		if err != nil {
			return nil, err
		}
		assigns[i] = lang.FieldAssign{Attr: as.Attr, Term: term}
	}
	if err := b.addQuals(st.Quals); err != nil {
		return nil, err
	}
	if len(b.ces) == 0 {
		return nil, fmt.Errorf("quel: append ALWAYS needs at least one range variable in its qualification")
	}
	// Quiescence guard: NOT EXISTS an identical tuple.
	guard := &lang.CondElem{Class: st.Class, Negated: true}
	for _, as := range assigns {
		guard.Tests = append(guard.Tests, lang.AttrTest{Attr: as.Attr, Atoms: []lang.TestAtom{{Op: value.OpEq, Term: as.Term}}})
	}
	return []*lang.Production{tr.trigger(append(b.lhs(), guard),
		&lang.Action{Kind: lang.ActMake, Class: st.Class, Assigns: assigns})}, nil
}
