package rules

import (
	"fmt"

	"prodsys/internal/lang"
	"prodsys/internal/relation"
	"prodsys/internal/value"
)

// CompileError reports a semantic error in a rule program.
type CompileError struct {
	Rule string
	Msg  string
}

func (e *CompileError) Error() string {
	if e.Rule == "" {
		return "compile error: " + e.Msg
	}
	return "compile error in rule " + e.Rule + ": " + e.Msg
}

func errf(rule, format string, args ...any) error {
	return &CompileError{Rule: rule, Msg: fmt.Sprintf(format, args...)}
}

// Compile resolves a parsed program against its literalize declarations
// and produces the positional rule model. It validates class and
// attribute references, variable usage (a non-equality test needs the
// variable bound earlier; variables first bound inside a negated
// condition element are local to it), and RHS actions.
func Compile(prog *lang.Program) (*Set, error) {
	set := &Set{
		Classes:  make(map[string]*relation.Schema),
		ByClass:  make(map[string][]*CE),
		byName:   make(map[string]*Rule),
		classIDs: make(map[string]int),
	}
	for _, lit := range prog.Literalizes {
		if _, dup := set.Classes[lit.Class]; dup {
			return nil, errf("", "class %s literalized twice", lit.Class)
		}
		schema, err := relation.NewSchema(lit.Class, lit.Attrs...)
		if err != nil {
			return nil, errf("", "literalize %s: %v", lit.Class, err)
		}
		set.Classes[lit.Class] = schema
		set.classIDs[lit.Class] = len(set.classIDs)
	}
	for idx, p := range prog.Productions {
		if _, dup := set.byName[p.Name]; dup {
			return nil, errf(p.Name, "duplicate rule name")
		}
		r, err := compileRule(set, p, idx)
		if err != nil {
			return nil, err
		}
		set.Rules = append(set.Rules, r)
		set.byName[p.Name] = r
		for _, ce := range r.CEs {
			set.ByClass[ce.Class] = append(set.ByClass[ce.Class], ce)
		}
	}
	return set, nil
}

// CompileRule compiles one production against set's class catalog
// without adding it to the set: the rule is not in set.Rules or
// set.ByClass, so no matcher maintains it. Ad-hoc join queries use it
// to run a one-off LHS through the planner. The rule's Index is -1.
func CompileRule(set *Set, p *lang.Production) (*Rule, error) {
	return compileRule(set, p, -1)
}

func compileRule(set *Set, p *lang.Production, idx int) (*Rule, error) {
	r := &Rule{Name: p.Name, Index: idx, slots: map[string]int{}}
	// bound tracks variables with a binding occurrence in a positive CE
	// processed so far; negLocal tracks variables whose first occurrence
	// was inside a negated CE — those are local to it and may not be
	// referenced by later condition elements or actions.
	bound := map[string]bool{}
	negLocal := map[string]bool{}
	positives := 0
	for i, astCE := range p.LHS {
		schema, ok := set.Classes[astCE.Class]
		if !ok {
			return nil, errf(p.Name, "condition element %d references unliteralized class %s", i+1, astCE.Class)
		}
		ce := &CE{
			Rule:    r,
			Index:   i,
			Class:   astCE.Class,
			ClassID: set.classIDs[astCE.Class],
			Schema:  schema,
			Negated: astCE.Negated,
		}
		if !ce.Negated {
			positives++
		}
		localBound := map[string]bool{}
		for _, test := range astCE.Tests {
			pos, ok := schema.Pos(test.Attr)
			if !ok {
				return nil, errf(p.Name, "class %s has no attribute %s", astCE.Class, test.Attr)
			}
			for _, atom := range test.Atoms {
				r.Specificity++
				if len(atom.Disj) > 0 {
					ce.Disj = append(ce.Disj, DisjTest{Pos: pos, Vals: append([]value.V(nil), atom.Disj...)})
					continue
				}
				if atom.Term.Kind == lang.TermConst {
					ce.Consts = append(ce.Consts, relation.Restriction{Pos: pos, Op: atom.Op, Val: atom.Term.Val})
					continue
				}
				name := atom.Term.Var
				if negLocal[name] && !bound[name] {
					return nil, errf(p.Name, "condition element %d references <%s>, which is bound only inside an earlier negated condition element",
						i+1, name)
				}
				isBound := bound[name] || localBound[name]
				vt := VarTest{Pos: pos, Op: atom.Op, Var: name, Slot: r.slot(name)}
				if !isBound {
					if atom.Op != value.OpEq {
						return nil, errf(p.Name, "condition element %d uses variable <%s> with %s before it is bound",
							i+1, name, atom.Op)
					}
					vt.Binds = true
					localBound[name] = true
					if !ce.Negated {
						r.BindAt[vt.Slot] = BindPos{CE: i, Pos: pos}
					}
				}
				if len(ce.VarTests) == maxVarTests {
					return nil, errf(p.Name, "condition element %d has more than %d variable tests", i+1, maxVarTests)
				}
				ce.VarTests = append(ce.VarTests, vt)
			}
		}
		if ce.Negated {
			// Bindings made inside a negated CE are local to it.
			for v := range localBound {
				negLocal[v] = true
			}
		} else {
			for v := range localBound {
				bound[v] = true
			}
		}
		r.CEs = append(r.CEs, ce)
	}
	if positives == 0 {
		return nil, errf(p.Name, "rule has no positive condition elements")
	}
	if err := compileActions(set, r, p, bound); err != nil {
		return nil, err
	}
	r.Actions = p.RHS
	return r, nil
}

// slot returns the slot numbering the named variable, adding one (with
// no binding occurrence yet) on first use.
func (r *Rule) slot(name string) int {
	if s, ok := r.slots[name]; ok {
		return s
	}
	s := len(r.Vars)
	r.slots[name] = s
	r.Vars = append(r.Vars, name)
	r.BindAt = append(r.BindAt, BindPos{CE: -1, Pos: -1})
	return s
}

func compileActions(set *Set, r *Rule, p *lang.Production, bound map[string]bool) error {
	// bind actions introduce new variables usable by later actions.
	avail := map[string]bool{}
	for v := range bound {
		avail[v] = true
	}
	checkTerm := func(t lang.Term, where string) error {
		if t.Kind == lang.TermVar && !avail[t.Var] {
			return errf(p.Name, "%s references unbound variable <%s>", where, t.Var)
		}
		return nil
	}
	for _, act := range p.RHS {
		switch act.Kind {
		case lang.ActMake:
			schema, ok := set.Classes[act.Class]
			if !ok {
				return errf(p.Name, "make references unliteralized class %s", act.Class)
			}
			for _, as := range act.Assigns {
				if _, ok := schema.Pos(as.Attr); !ok {
					return errf(p.Name, "make %s: class has no attribute %s", act.Class, as.Attr)
				}
				if err := checkTerm(as.Term, "make "+act.Class); err != nil {
					return err
				}
			}
		case lang.ActRemove, lang.ActModify:
			if act.CE < 1 || act.CE > len(r.CEs) {
				return errf(p.Name, "%s %d: rule has %d condition elements", act.Kind, act.CE, len(r.CEs))
			}
			target := r.CEs[act.CE-1]
			if target.Negated {
				return errf(p.Name, "%s %d targets a negated condition element", act.Kind, act.CE)
			}
			if act.Kind == lang.ActModify {
				for _, as := range act.Assigns {
					if _, ok := target.Schema.Pos(as.Attr); !ok {
						return errf(p.Name, "modify %d: class %s has no attribute %s", act.CE, target.Class, as.Attr)
					}
					if err := checkTerm(as.Term, fmt.Sprintf("modify %d", act.CE)); err != nil {
						return err
					}
				}
			}
		case lang.ActWrite:
			for _, arg := range act.Args {
				if err := checkTerm(arg, "write"); err != nil {
					return err
				}
			}
		case lang.ActCall:
			for _, arg := range act.Args {
				if err := checkTerm(arg, "call "+act.Func); err != nil {
					return err
				}
			}
		case lang.ActBind:
			if err := checkTerm(act.Term, "bind"); err != nil {
				return err
			}
			avail[act.Var] = true
			r.slot(act.Var)
		case lang.ActHalt:
			// no arguments
		}
	}
	return nil
}

// FactTuple converts a parsed fact into a tuple over the class schema.
// Positional facts may be shorter than the schema (remaining attributes
// stay nil); attribute-form facts set only the named attributes.
func FactTuple(set *Set, f *lang.Fact) (string, relation.Tuple, error) {
	schema, ok := set.Classes[f.Class]
	if !ok {
		return "", nil, errf("", "fact references unliteralized class %s", f.Class)
	}
	t := make(relation.Tuple, schema.Arity())
	if len(f.Positional) > 0 {
		if len(f.Positional) > schema.Arity() {
			return "", nil, errf("", "fact for %s has %d values but the class has %d attributes",
				f.Class, len(f.Positional), schema.Arity())
		}
		for i, term := range f.Positional {
			t[i] = term.Val
		}
		return f.Class, t, nil
	}
	for _, as := range f.Assigns {
		pos, ok := schema.Pos(as.Attr)
		if !ok {
			return "", nil, errf("", "fact for %s: class has no attribute %s", f.Class, as.Attr)
		}
		t[pos] = as.Term.Val
	}
	return f.Class, t, nil
}

// indexable reports whether an operator benefits from a secondary
// index: equality probes the hash side, ranges probe the ordered side.
// Only <> gains nothing from either.
func indexable(op value.Op) bool { return op != value.OpNe }

// BuildDB creates a relation catalog with one WM relation per declared
// class, indexing every attribute that appears in an equality or range
// test of some condition element (a cheap physical-design heuristic
// standing in for the paper's "intelligent indexing"). Each index
// carries a hash side (equality probes) and, where a range probe can
// reach the attribute, an ordered side, so alpha selections like
// "^salary > n" become index probes instead of class scans.
func BuildDB(set *Set, db *relation.DB) error {
	if err := BuildCatalog(set, db); err != nil {
		return err
	}
	return BuildIndexes(set, db)
}

// BuildCatalog creates the WM relations without any secondary indexes.
// Benchmarks use it (followed by nothing, or by BuildIndexes) to compare
// indexed against scan-only access paths on the same catalog.
func BuildCatalog(set *Set, db *relation.DB) error {
	for _, name := range set.ClassNames() {
		schema := set.Classes[name]
		if _, err := db.Create(name, schema.Attrs()...); err != nil {
			return err
		}
	}
	return nil
}

// BuildIndexes applies the physical-design heuristic to an existing
// catalog: every attribute appearing in an indexable condition-element
// test gets a secondary index — hash+ordered where a range probe can
// reach it (see rangeProbed), hash only otherwise, since the ordered side
// costs a sorted-list update on every change.
func BuildIndexes(set *Set, db *relation.DB) error {
	ranged := rangeProbed(set)
	for _, name := range set.ClassNames() {
		rel, err := db.Lookup(name)
		if err != nil {
			return err
		}
		index := func(pos int) error {
			if ranged[name][pos] {
				return rel.CreateIndex(pos)
			}
			return rel.CreateHashIndex(pos)
		}
		for _, ce := range set.ByClass[name] {
			for _, c := range ce.Consts {
				if indexable(c.Op) {
					if err := index(c.Pos); err != nil {
						return err
					}
				}
			}
			for _, vt := range ce.VarTests {
				if indexable(vt.Op) {
					if err := index(vt.Pos); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// rangeProbed returns, per class, the attribute positions a range probe
// can reach: those with a <, <=, > or >= constant or variable test, plus
// the equality positions of every variable another condition element of
// the rule compares with a range operator (the flipped-operand probe,
// which bounds the binding side by the comparing side's value).
func rangeProbed(set *Set) map[string]map[int]bool {
	out := map[string]map[int]bool{}
	mark := func(class string, pos int) {
		if out[class] == nil {
			out[class] = map[int]bool{}
		}
		out[class][pos] = true
	}
	isRange := func(op value.Op) bool { return op != value.OpEq && op != value.OpNe }
	for _, r := range set.Rules {
		for _, ce := range r.CEs {
			for _, c := range ce.Consts {
				if isRange(c.Op) {
					mark(ce.Class, c.Pos)
				}
			}
			for _, vt := range ce.VarTests {
				if !isRange(vt.Op) {
					continue
				}
				mark(ce.Class, vt.Pos)
				for _, other := range r.CEs {
					for _, ot := range other.VarTests {
						if other != ce && ot.Var == vt.Var && ot.Op == value.OpEq {
							mark(other.Class, ot.Pos)
						}
					}
				}
			}
		}
	}
	return out
}

// CompileSource parses and compiles in one step.
func CompileSource(src string) (*Set, *lang.Program, error) {
	prog, err := lang.Parse(src)
	if err != nil {
		return nil, nil, err
	}
	set, err := Compile(prog)
	if err != nil {
		return nil, nil, err
	}
	return set, prog, nil
}
