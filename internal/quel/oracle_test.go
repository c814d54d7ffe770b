package quel

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"prodsys/internal/engine"
	"prodsys/internal/metrics"
	"prodsys/internal/relation"
	"prodsys/internal/value"
)

// These tests pin ad-hoc statements, which run as joins on the rule
// planner, to the plain nested-loop semantics of QUEL: every range
// variable scanned in first-mention order, the qualification tested on
// each combination.

// nestedLoop executes st the brute-force way against f's working memory
// and commits any writes through f's interpreter.
func nestedLoop(t *testing.T, f *fixture, st *Stmt) *Result {
	t.Helper()
	var vars []string
	mention := func(o Operand) {
		if o.IsRef() && !slices.Contains(vars, o.Var) {
			vars = append(vars, o.Var)
		}
	}
	mention(Operand{Var: st.Var})
	for _, o := range st.Targets {
		mention(o)
	}
	for _, as := range st.Assigns {
		mention(as.Expr)
	}
	for _, q := range st.Quals {
		mention(q.Left)
		mention(q.Right)
	}
	type row struct {
		id relation.TupleID
		t  relation.Tuple
	}
	rels := make([][]row, len(vars))
	for i, v := range vars {
		cls, err := f.tr.classOf(v)
		if err != nil {
			t.Fatal(err)
		}
		f.eng.DB().MustGet(cls).Scan(func(id relation.TupleID, tu relation.Tuple) bool {
			rels[i] = append(rels[i], row{id, tu.Clone()})
			return true
		})
	}
	val := func(o Operand, combo []row) value.V {
		if !o.IsRef() {
			return o.Const
		}
		i := slices.Index(vars, o.Var)
		cls, _ := f.tr.classOf(o.Var)
		pos, err := f.tr.attrPos(cls, o.Attr)
		if err != nil {
			t.Fatal(err)
		}
		return combo[i].t[pos]
	}
	var combos [][]row
	cur := make([]row, len(vars))
	var rec func(i int)
	rec = func(i int) {
		if i == len(vars) {
			for _, q := range st.Quals {
				if !q.Op.Apply(val(q.Left, cur), val(q.Right, cur)) {
					return
				}
			}
			combos = append(combos, slices.Clone(cur))
			return
		}
		for _, r := range rels[i] {
			cur[i] = r
			rec(i + 1)
		}
	}
	rec(0)

	switch st.Kind {
	case StmtRetrieve:
		res := &Result{}
		for _, o := range st.Targets {
			res.Columns = append(res.Columns, o.String())
		}
		for _, c := range combos {
			var out []string
			for _, o := range st.Targets {
				out = append(out, renderValue(val(o, c)))
			}
			res.Rows = append(res.Rows, out)
		}
		sort.Slice(res.Rows, func(i, j int) bool {
			return strings.Join(res.Rows[i], "\x00") < strings.Join(res.Rows[j], "\x00")
		})
		return res
	case StmtDelete, StmtReplace:
		cls, _ := f.tr.classOf(st.Var)
		var ops []engine.DeltaOp
		seen := map[relation.TupleID]bool{}
		for _, c := range combos {
			target := c[0]
			if seen[target.id] {
				continue // the first combination met wins
			}
			seen[target.id] = true
			ops = append(ops, engine.DeltaOp{Retract: true, Class: cls, ID: target.id})
			if st.Kind == StmtReplace {
				nt := target.t.Clone()
				for _, as := range st.Assigns {
					pos, _ := f.tr.attrPos(cls, as.Attr)
					nt[pos] = val(as.Expr, c)
				}
				ops = append(ops, engine.DeltaOp{Class: cls, Tuple: nt})
			}
		}
		res, err := f.in.write(ops)
		if err != nil {
			t.Fatal(err)
		}
		res.Affected = len(seen)
		return res
	}
	t.Fatalf("no oracle for %s", st.Kind)
	return nil
}

// pair is two fixtures holding the same working memory: got runs
// statements through the interpreter, want through nestedLoop.
type pair struct{ got, want *fixture }

func newPair(t *testing.T) *pair {
	p := &pair{got: setup(t, nil), want: setup(t, nil)}
	for _, f := range []*fixture{p.got, p.want} {
		f.tr.DeclareRange("F", "Emp")
		f.tr.DeclareRange("G", "Dept")
	}
	return p
}

func (p *pair) insert(t *testing.T, ops []engine.DeltaOp) {
	t.Helper()
	for _, f := range []*fixture{p.got, p.want} {
		if _, err := f.eng.ApplyDelta(ops); err != nil {
			t.Fatal(err)
		}
	}
}

// check runs src on both sides and compares rows, Affected and the
// resulting working memory.
func (p *pair) check(t *testing.T, src string) {
	t.Helper()
	st, err := Parse(src)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	got, err := p.got.in.Exec(src)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	want := nestedLoop(t, p.want, st)
	if !reflect.DeepEqual(got.Columns, want.Columns) || !reflect.DeepEqual(got.Rows, want.Rows) {
		t.Fatalf("%s:\nplanner rows %v %v\nnested loop  %v %v", src, got.Columns, got.Rows, want.Columns, want.Rows)
	}
	if got.Affected != want.Affected {
		t.Fatalf("%s: affected %d, nested loop %d", src, got.Affected, want.Affected)
	}
	if g, w := p.got.eng.SnapshotWM(), p.want.eng.SnapshotWM(); g != w {
		t.Fatalf("%s: working memory diverged\nplanner:\n%s\nnested loop:\n%s", src, g, w)
	}
}

// byteSource draws choices from fuzz input; exhausted input reads 0.
type byteSource []byte

func (s *byteSource) intn(n int) int {
	if len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return int(b) % n
}

// domain is every value a generated tuple field or constant may take.
var domain = []value.V{
	{}, value.OfInt(1), value.OfInt(2), value.OfInt(3), value.OfInt(-1),
	value.OfFloat(2), value.OfFloat(2.5), value.OfSym("a"), value.OfSym("b"), value.OfSym("Big Boss"),
}

// quelConst spells a non-nil constant in QUEL.
func quelConst(v value.V) string {
	switch v.Kind() {
	case value.Float:
		s := strconv.FormatFloat(v.AsFloat(), 'f', -1, 64)
		if !strings.Contains(s, ".") {
			s += ".0"
		}
		return s
	case value.Sym:
		return strconv.Quote(v.AsString())
	default:
		return v.String()
	}
}

var varClass = map[string]string{"E": "Emp", "F": "Emp", "Emp": "Emp", "D": "Dept", "G": "Dept", "Dept": "Dept"}

// checkNestedLoop builds a working memory and a short statement sequence
// from data and checks each statement against the nested loop.
func checkNestedLoop(t *testing.T, data []byte) {
	src := byteSource(data)
	p := newPair(t)
	// Random secondary indexes on the planner side: none, hash, or hash
	// plus ordered, per attribute.
	for _, cls := range []string{"Emp", "Dept"} {
		rel := p.got.eng.DB().MustGet(cls)
		for pos := range p.got.tr.Classes[cls] {
			var err error
			switch src.intn(3) {
			case 1:
				err = rel.CreateHashIndex(pos)
			case 2:
				err = rel.CreateIndex(pos)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	var ops []engine.DeltaOp
	for _, cls := range []string{"Emp", "Dept"} {
		for n := src.intn(7); n > 0; n-- {
			tu := make(relation.Tuple, len(p.got.tr.Classes[cls]))
			for i := range tu {
				tu[i] = domain[src.intn(len(domain))]
			}
			ops = append(ops, engine.DeltaOp{Class: cls, Tuple: tu})
		}
	}
	p.insert(t, ops)
	for n := 1 + src.intn(3); n > 0; n-- {
		p.check(t, genStatement(&src, p.got.tr))
	}
}

// genStatement draws a retrieve, delete or replace over 1–3 range
// variables, with constant and attribute conjuncts in both directions.
func genStatement(src *byteSource, tr *Translator) string {
	pool := []string{"E", "F", "Emp", "D", "G", "Dept"}
	var vars []string
	for n := 1 + src.intn(3); len(vars) < n; {
		i := src.intn(len(pool))
		vars = append(vars, pool[i])
		pool = slices.Delete(pool, i, i+1)
	}
	ref := func(v string) string {
		attrs := tr.Classes[varClass[v]]
		return v + "." + attrs[src.intn(len(attrs))]
	}
	konst := func() string { return quelConst(domain[1+src.intn(len(domain)-1)]) }
	op := func() string { return value.Op(src.intn(6)).String() }
	conjunct := func(v string) string {
		switch src.intn(16) {
		case 0, 1, 2, 3:
			return ref(v) + " " + op() + " " + konst()
		case 4, 5:
			return konst() + " " + op() + " " + ref(v)
		case 6:
			return konst() + " " + op() + " " + konst()
		default:
			w := vars[src.intn(len(vars))]
			if src.intn(2) == 0 {
				return ref(v) + " " + op() + " " + ref(w)
			}
			return ref(w) + " " + op() + " " + ref(v)
		}
	}
	// Every variable after the first is mentioned by at least one
	// conjunct; a few more ride along.
	var quals []string
	for _, v := range vars[1:] {
		quals = append(quals, conjunct(v))
	}
	for n := src.intn(3); n > 0; n-- {
		quals = append(quals, conjunct(vars[src.intn(len(vars))]))
	}
	where := ""
	if len(quals) > 0 {
		where = " where " + strings.Join(quals, " and ")
	}
	switch src.intn(3) {
	case 0:
		targets := []string{ref(vars[0])}
		for n := src.intn(3); n > 0; n-- {
			targets = append(targets, ref(vars[src.intn(len(vars))]))
		}
		return "retrieve (" + strings.Join(targets, ", ") + ")" + where
	case 1:
		return "delete " + vars[0] + where
	default:
		attrs := tr.Classes[varClass[vars[0]]]
		var assigns []string
		for _, i := range src.perm(len(attrs))[:1+src.intn(len(attrs))] {
			rhs := konst()
			if src.intn(2) == 0 {
				rhs = ref(vars[src.intn(len(vars))])
			}
			assigns = append(assigns, attrs[i]+" = "+rhs)
		}
		return "replace " + vars[0] + " (" + strings.Join(assigns, ", ") + ")" + where
	}
}

// perm draws a permutation of [0, n).
func (s *byteSource) perm(n int) []int {
	out := make([]int, n)
	for i := range out {
		j := s.intn(i + 1)
		out[i], out[j] = out[j], i
	}
	return out
}

// TestQuelAgainstNestedLoop compares ad-hoc statements with the
// nested-loop oracle: fixed duplicate-target replaces first, where
// several combinations assign one target and the first one met must
// win, then random working memories and statements.
func TestQuelAgainstNestedLoop(t *testing.T) {
	p := newPair(t)
	var ops []engine.DeltaOp
	for i := 0; i < 4; i++ {
		ops = append(ops, engine.DeltaOp{Class: "Emp", Tuple: relation.Tuple{value.OfSym(fmt.Sprint("e", i)), value.OfInt(int64(10 * i)), value.OfInt(int64(i % 2))}})
		ops = append(ops, engine.DeltaOp{Class: "Dept", Tuple: relation.Tuple{value.OfInt(int64(3 - i)), value.OfSym(fmt.Sprint("d", i))}})
	}
	ops = append(ops, engine.DeltaOp{Class: "Emp", Tuple: relation.Tuple{value.OfSym("nosal"), {}, value.OfInt(1)}})
	p.insert(t, ops)
	for _, src := range []string{
		`retrieve (E.name, D.dname) where E.salary <> D.dno`,
		`replace E (salary = D.dno) where E.dno <> D.dno`,
		`replace E (name = D.dname, dno = G.dno) where D.dno > G.dno and E.salary >= 10`,
		`replace D (dname = E.name) where E.dno < D.dno`,
		`delete E where E.salary > D.dno and D.dname = "d1"`,
		`retrieve (E.name) where 1 = 2`,
		`replace F (salary = 7)`,
	} {
		p.check(t, src)
	}

	rng := rand.New(rand.NewSource(1))
	n := 4000
	if testing.Short() {
		n = 50
	}
	for i := 0; i < n; i++ {
		data := make([]byte, 128)
		rng.Read(data)
		t.Run(strconv.Itoa(i), func(t *testing.T) { checkNestedLoop(t, data) })
	}
}

// FuzzQuelStatement is TestQuelAgainstNestedLoop's random half driven by
// fuzz input.
func FuzzQuelStatement(f *testing.F) {
	f.Fuzz(checkNestedLoop)
}

// TestAdHocPlansAreNotCached runs 1 000 distinct retrieves: each is
// planned (plans_built counts it) but none enters the plan cache.
func TestAdHocPlansAreNotCached(t *testing.T) {
	f := setup(t, []string{`delete ALWAYS E where E.salary < 0`})
	f.mustExec(t, `append to Emp (name = "Ann", salary = 5, dno = 1)`)
	cached, built := f.pl.Cached(), f.stats.Get(metrics.PlansBuilt)
	for i := 0; i < 1000; i++ {
		f.mustExec(t, fmt.Sprintf(`retrieve (E.name) where E.salary < %d`, i))
	}
	if got := f.pl.Cached(); got != cached {
		t.Fatalf("plan cache grew from %d to %d entries", cached, got)
	}
	if got := f.stats.Get(metrics.PlansBuilt) - built; got < 1000 {
		t.Fatalf("plans_built rose by %d over 1000 retrieves", got)
	}
}

// TestRangeRetrieveProbesOrderedIndex checks a range retrieve over an
// ordered index reads its window, not the relation.
func TestRangeRetrieveProbesOrderedIndex(t *testing.T) {
	f := setup(t, []string{`delete ALWAYS E where E.salary < 0`}) // indexes salary, ordered
	var ops []engine.DeltaOp
	for i := 0; i < 1000; i++ {
		ops = append(ops, engine.DeltaOp{Class: "Emp", Tuple: relation.Tuple{value.OfSym(fmt.Sprint("e", i)), value.OfInt(int64(i)), value.OfInt(1)}})
	}
	if _, err := f.eng.ApplyDelta(ops); err != nil {
		t.Fatal(err)
	}
	scanned, probes := f.stats.Get(metrics.TuplesScanned), f.stats.Get(metrics.IndexRangeProbes)
	r := f.mustExec(t, `retrieve (E.name, E.salary) where E.salary >= 100 and E.salary < 150`)
	if len(r.Rows) != 50 {
		t.Fatalf("rows = %d, want 50", len(r.Rows))
	}
	if got := f.stats.Get(metrics.TuplesScanned) - scanned; got > 2*int64(len(r.Rows)) {
		t.Fatalf("tuples_scanned = %d for %d rows", got, len(r.Rows))
	}
	if f.stats.Get(metrics.IndexRangeProbes) == probes {
		t.Fatal("no ordered-index range probe")
	}
}
