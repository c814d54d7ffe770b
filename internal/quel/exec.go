package quel

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"prodsys/internal/engine"
	"prodsys/internal/joiner"
	"prodsys/internal/lang"
	"prodsys/internal/relation"
	"prodsys/internal/rules"
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
// run-indefinitely illusion of §2.3. Qualifications run as joins on the
// rule planner, the executor the matchers use.
type Interp struct {
	eng *engine.Engine
	tr  *Translator
	set *rules.Set
	pl  *joiner.Planner
}

// NewInterp builds an interpreter. The translator carries the range
// declarations and class catalog; set supplies the compiled schemas the
// lowered statements are checked against, and pl (non-nil) runs them.
func NewInterp(eng *engine.Engine, tr *Translator, set *rules.Set, pl *joiner.Planner) *Interp {
	return &Interp{eng: eng, tr: tr, set: set, pl: pl}
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

// join lowers st into a production with an empty RHS — one CE per range
// variable in first-mention order: target, retrieve targets, assignment
// sources, qualification operands — and runs it once on the planner. fn
// receives every qualifying combination, ids and tuples aligned with
// those variables; the returned builder's read takes operands out of one.
func (in *Interp) join(st *Stmt, fn func(ids []relation.TupleID, tuples []relation.Tuple)) (*builder, error) {
	b := in.tr.newBuilder("")
	b.adhoc = true
	if st.Var != "" {
		if _, err := b.ceFor(st.Var); err != nil {
			return nil, err
		}
	}
	for _, o := range st.Targets {
		if err := b.mention(o); err != nil {
			return nil, err
		}
	}
	for _, as := range st.Assigns {
		if _, err := in.tr.attrPos(b.ces[0].Class, as.Attr); err != nil {
			return nil, err
		}
		if err := b.mention(as.Expr); err != nil {
			return nil, err
		}
	}
	if err := b.addQuals(st.Quals); err != nil {
		return nil, err
	}
	if b.never {
		return b, nil
	}
	r, err := rules.CompileRule(in.set, &lang.Production{Name: "quel-query", LHS: b.ces})
	if err != nil {
		return nil, err
	}
	in.pl.Query(r, func(ids []relation.TupleID, tuples []relation.Tuple, _ rules.Bindings) {
		for _, c := range b.residual {
			if !c.Op.Apply(b.read(c.Left, tuples), b.read(c.Right, tuples)) {
				return
			}
		}
		fn(ids, tuples)
	})
	return b, nil
}

// read evaluates an operand of a lowered ad-hoc statement against one
// combination of tuples, aligned with the builder's CEs.
func (b *builder) read(o Operand, tuples []relation.Tuple) value.V {
	if !o.IsRef() {
		return o.Const
	}
	i := b.byVar[o.Var]
	pos, _ := b.tr.attrPos(b.ces[i].Class, o.Attr)
	return tuples[i][pos]
}

// write commits one statement's changes as a single engine delta — one
// serialized, logged, all-or-nothing unit (a crash recovers the whole
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
		res.Columns = append(res.Columns, t.String())
	}
	var combos [][]relation.Tuple
	b, err := in.join(st, func(_ []relation.TupleID, tuples []relation.Tuple) {
		combos = append(combos, slices.Clone(tuples))
	})
	if err != nil {
		return nil, err
	}
	for _, tuples := range combos {
		row := make([]string, len(st.Targets))
		for i, t := range st.Targets {
			row[i] = renderValue(b.read(t, tuples))
		}
		res.Rows = append(res.Rows, row)
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
		pos, err := in.tr.attrPos(st.Class, as.Attr)
		if err != nil {
			return nil, err
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
	// Collect distinct target ids first (the join must not race the
	// deletions).
	ids := map[relation.TupleID]bool{}
	if _, err := in.join(st, func(combo []relation.TupleID, _ []relation.Tuple) {
		ids[combo[0]] = true
	}); err != nil {
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
	// When several combinations assign one target, the winner is the one
	// a nested loop over the variables in first-mention order meets
	// first: the smallest tuple-ID vector, whatever the plan order.
	type combo struct {
		ids    []relation.TupleID
		tuples []relation.Tuple
	}
	win := map[relation.TupleID]combo{}
	b, err := in.join(st, func(ids []relation.TupleID, tuples []relation.Tuple) {
		if cur, ok := win[ids[0]]; !ok || slices.Compare(ids, cur.ids) < 0 {
			win[ids[0]] = combo{slices.Clone(ids), slices.Clone(tuples)}
		}
	})
	if err != nil {
		return nil, err
	}
	targets := make([]relation.TupleID, 0, len(win))
	for id := range win {
		targets = append(targets, id)
	}
	slices.Sort(targets)
	ops := make([]engine.DeltaOp, 0, 2*len(targets))
	for _, id := range targets {
		c := win[id]
		nt := c.tuples[0].Clone()
		for _, as := range st.Assigns {
			pos, _ := in.tr.attrPos(cls, as.Attr)
			nt[pos] = b.read(as.Expr, c.tuples)
		}
		// A replace is a delete followed by an insert (§3.1).
		ops = append(ops, engine.DeltaOp{Retract: true, Class: cls, ID: id},
			engine.DeltaOp{Class: cls, Tuple: nt})
	}
	res, err := in.write(ops)
	if res != nil {
		res.Affected = len(targets)
	}
	return res, err
}
