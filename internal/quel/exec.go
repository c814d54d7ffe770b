package quel

import (
	"fmt"
	"sort"
	"strings"

	"prodsys/internal/engine"
	"prodsys/internal/relation"
	"prodsys/internal/value"
)

// Result reports what one statement did.
type Result struct {
	Columns  []string   // retrieve
	Rows     [][]string // retrieve
	Affected int        // append/delete/replace: tuples changed
	Fired    int        // trigger firings caused by the statement
}

// Interp executes QUEL DML against an engine's working memory. Every
// data change goes through the engine so ALWAYS triggers (compiled into
// productions at load time) fire immediately afterwards, giving the
// run-indefinitely illusion of §2.3.
type Interp struct {
	eng *engine.Engine
	tr  *Translator
}

// NewInterp builds an interpreter. The translator carries the range
// declarations and class catalog.
func NewInterp(eng *engine.Engine, tr *Translator) *Interp {
	return &Interp{eng: eng, tr: tr}
}

// Exec parses and executes one statement. ALWAYS-tagged and create
// statements are rejected here: they are definition-time constructs
// handled by the loader.
func (in *Interp) Exec(src string) (*Result, error) {
	st, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return in.ExecStmt(st)
}

// ExecStmt executes one parsed statement.
func (in *Interp) ExecStmt(st *Stmt) (*Result, error) {
	if st.Always {
		return nil, fmt.Errorf("quel: ALWAYS commands must be declared before loading (they compile into rules)")
	}
	switch st.Kind {
	case StmtCreate:
		return nil, fmt.Errorf("quel: create is a definition-time statement")
	case StmtRange:
		if err := in.tr.DeclareRange(st.Var, st.Class); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case StmtRetrieve:
		return in.retrieve(st)
	case StmtAppend:
		return in.append(st)
	case StmtDelete:
		return in.delete(st)
	case StmtReplace:
		return in.replace(st)
	default:
		return nil, fmt.Errorf("quel: unsupported statement")
	}
}

// binding is one assignment of tuples to the statement's range variables.
type binding map[string]struct {
	id relation.TupleID
	t  relation.Tuple
}

// rangeVarsOf collects the distinct range variables a statement touches,
// target first, in deterministic order.
func (in *Interp) rangeVarsOf(st *Stmt) ([]string, error) {
	seen := map[string]bool{}
	var out []string
	add := func(v string) error {
		if v == "" || seen[v] {
			return nil
		}
		if _, err := in.tr.classOf(v); err != nil {
			return err
		}
		seen[v] = true
		out = append(out, v)
		return nil
	}
	if st.Var != "" && st.Kind != StmtRange {
		if err := add(st.Var); err != nil {
			return nil, err
		}
	}
	for _, t := range st.Targets {
		if err := add(t.Var); err != nil {
			return nil, err
		}
	}
	for _, a := range st.Assigns {
		if a.Expr.IsRef() {
			if err := add(a.Expr.Var); err != nil {
				return nil, err
			}
		}
	}
	for _, q := range st.Quals {
		if q.Left.IsRef() {
			if err := add(q.Left.Var); err != nil {
				return nil, err
			}
		}
		if q.Right.IsRef() {
			if err := add(q.Right.Var); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// resolve evaluates an operand under a binding.
func resolve(o Operand, b binding, tr *Translator) (value.V, error) {
	if !o.IsRef() {
		return o.Const, nil
	}
	ent, ok := b[o.Var]
	if !ok {
		return value.V{}, fmt.Errorf("quel: variable %q not bound", o.Var)
	}
	cls, _ := tr.classOf(o.Var)
	pos := attrIndex(tr.Classes[cls], o.Attr)
	if pos < 0 {
		return value.V{}, fmt.Errorf("quel: relation %s has no attribute %s", cls, o.Attr)
	}
	return ent.t[pos], nil
}

func attrIndex(attrs []string, attr string) int {
	for i, a := range attrs {
		if a == attr {
			return i
		}
	}
	return -1
}

// enumerate nested-loops over the statement's range variables, invoking
// fn for every combination satisfying the qualification.
func (in *Interp) enumerate(st *Stmt, fn func(b binding) error) error {
	vars, err := in.rangeVarsOf(st)
	if err != nil {
		return err
	}
	// Validate qualification attributes up front.
	for _, q := range st.Quals {
		for _, o := range []Operand{q.Left, q.Right} {
			if !o.IsRef() {
				continue
			}
			cls, _ := in.tr.classOf(o.Var)
			if attrIndex(in.tr.Classes[cls], o.Attr) < 0 {
				return fmt.Errorf("quel: relation %s has no attribute %s", cls, o.Attr)
			}
		}
	}
	b := binding{}
	var rec func(i int) error
	rec = func(i int) error {
		if i == len(vars) {
			for _, q := range st.Quals {
				l, err := resolve(q.Left, b, in.tr)
				if err != nil {
					return err
				}
				r, err := resolve(q.Right, b, in.tr)
				if err != nil {
					return err
				}
				if !q.Op.Apply(l, r) {
					return nil
				}
			}
			return fn(b)
		}
		v := vars[i]
		cls, _ := in.tr.classOf(v)
		rel, ok := in.eng.DB().Get(cls)
		if !ok {
			return fmt.Errorf("quel: relation %s not in catalog", cls)
		}
		var ids []relation.TupleID
		var tuples []relation.Tuple
		rel.Scan(func(id relation.TupleID, t relation.Tuple) bool {
			ids = append(ids, id)
			tuples = append(tuples, t.Clone())
			return true
		})
		for j := range ids {
			b[v] = struct {
				id relation.TupleID
				t  relation.Tuple
			}{ids[j], tuples[j]}
			if err := rec(i + 1); err != nil {
				return err
			}
		}
		delete(b, v)
		return nil
	}
	return rec(0)
}

// write commits one statement's changes as a single engine delta — one
// locked, logged, all-or-nothing unit (a crash recovers the whole
// statement or none of it) — then drains the conflict set, firing the
// triggers the change enabled.
func (in *Interp) write(ops []engine.DeltaOp) (*Result, error) {
	if _, err := in.eng.ApplyDelta(ops); err != nil {
		return nil, err
	}
	r, err := in.eng.RunSerial()
	return &Result{Affected: len(ops), Fired: r.Firings}, err
}

func (in *Interp) retrieve(st *Stmt) (*Result, error) {
	res := &Result{}
	for _, t := range st.Targets {
		cls, err := in.tr.classOf(t.Var)
		if err != nil {
			return nil, err
		}
		if attrIndex(in.tr.Classes[cls], t.Attr) < 0 {
			return nil, fmt.Errorf("quel: relation %s has no attribute %s", cls, t.Attr)
		}
		res.Columns = append(res.Columns, t.String())
	}
	err := in.enumerate(st, func(b binding) error {
		row := make([]string, len(st.Targets))
		for i, t := range st.Targets {
			v, err := resolve(t, b, in.tr)
			if err != nil {
				return err
			}
			row[i] = renderValue(v)
		}
		res.Rows = append(res.Rows, row)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(res.Rows, func(i, j int) bool {
		return strings.Join(res.Rows[i], "\x00") < strings.Join(res.Rows[j], "\x00")
	})
	return res, nil
}

func renderValue(v value.V) string {
	if v.Kind() == value.Str || v.Kind() == value.Sym {
		return v.AsString()
	}
	return v.String()
}

func (in *Interp) append(st *Stmt) (*Result, error) {
	attrs, ok := in.tr.Classes[st.Class]
	if !ok {
		return nil, fmt.Errorf("quel: append to unknown relation %s", st.Class)
	}
	t := make(relation.Tuple, len(attrs))
	for _, as := range st.Assigns {
		pos := attrIndex(attrs, as.Attr)
		if pos < 0 {
			return nil, fmt.Errorf("quel: relation %s has no attribute %s", st.Class, as.Attr)
		}
		if as.Expr.IsRef() {
			return nil, fmt.Errorf("quel: append values must be constants")
		}
		t[pos] = as.Expr.Const
	}
	return in.write([]engine.DeltaOp{{Class: st.Class, Tuple: t}})
}

func (in *Interp) delete(st *Stmt) (*Result, error) {
	cls, err := in.tr.classOf(st.Var)
	if err != nil {
		return nil, err
	}
	// Collect distinct target ids first (the scan must not race the
	// deletions).
	ids := map[relation.TupleID]bool{}
	err = in.enumerate(st, func(b binding) error {
		ids[b[st.Var].id] = true
		return nil
	})
	if err != nil {
		return nil, err
	}
	ops := make([]engine.DeltaOp, 0, len(ids))
	for id := range ids {
		ops = append(ops, engine.DeltaOp{Retract: true, Class: cls, ID: id})
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].ID < ops[j].ID })
	return in.write(ops)
}

func (in *Interp) replace(st *Stmt) (*Result, error) {
	cls, err := in.tr.classOf(st.Var)
	if err != nil {
		return nil, err
	}
	attrs := in.tr.Classes[cls]
	// Compute each target's replacement tuple; the first qualifying
	// combination wins when several assign the same target.
	var ops []engine.DeltaOp
	seen := map[relation.TupleID]bool{}
	err = in.enumerate(st, func(b binding) error {
		ent := b[st.Var]
		if seen[ent.id] {
			return nil
		}
		seen[ent.id] = true
		nt := ent.t.Clone()
		for _, as := range st.Assigns {
			pos := attrIndex(attrs, as.Attr)
			if pos < 0 {
				return fmt.Errorf("quel: relation %s has no attribute %s", cls, as.Attr)
			}
			v, err := resolve(as.Expr, b, in.tr)
			if err != nil {
				return err
			}
			nt[pos] = v
		}
		// A replace is a delete followed by an insert (§3.1).
		ops = append(ops, engine.DeltaOp{Retract: true, Class: cls, ID: ent.id},
			engine.DeltaOp{Class: cls, Tuple: nt})
		return nil
	})
	if err != nil {
		return nil, err
	}
	res, err := in.write(ops)
	if res != nil {
		res.Affected = len(ops) / 2
	}
	return res, err
}
