package quel

import (
	"reflect"
	"strings"
	"testing"

	"prodsys/internal/conflict"
	"prodsys/internal/engine"
	"prodsys/internal/joiner"
	"prodsys/internal/lang"
	"prodsys/internal/match"
	"prodsys/internal/matchers"
	"prodsys/internal/metrics"
	"prodsys/internal/relation"
	"prodsys/internal/rules"
	"prodsys/internal/value"
)

func TestParseRange(t *testing.T) {
	st, err := Parse("range of E is Emp")
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind != StmtRange || st.Var != "E" || st.Class != "Emp" {
		t.Fatalf("parsed %+v", st)
	}
}

func TestParseRetrieve(t *testing.T) {
	st, err := Parse(`retrieve (E.name, E.salary) where E.salary > 1000 and E.dno = D.dno`)
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind != StmtRetrieve || len(st.Targets) != 2 || len(st.Quals) != 2 {
		t.Fatalf("parsed %+v", st)
	}
	if st.Targets[0].Var != "E" || st.Targets[0].Attr != "name" {
		t.Fatalf("target 0: %+v", st.Targets[0])
	}
	q := st.Quals[0]
	if !q.Left.IsRef() || q.Op != value.OpGt || !value.Equal(q.Right.Const, value.OfInt(1000)) {
		t.Fatalf("qual 0: %+v", q)
	}
	if !st.Quals[1].Right.IsRef() {
		t.Fatalf("qual 1: %+v", st.Quals[1])
	}
}

func TestParseAppendDeleteReplace(t *testing.T) {
	st, err := Parse(`append to Emp (name = "Zoe", salary = 1200, dno = 3)`)
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind != StmtAppend || st.Class != "Emp" || len(st.Assigns) != 3 {
		t.Fatalf("append: %+v", st)
	}
	if st.Assigns[0].Expr.Const.AsString() != "Zoe" {
		t.Fatalf("assign 0: %+v", st.Assigns[0])
	}

	st, err = Parse(`delete E where E.salary < 100`)
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind != StmtDelete || st.Var != "E" || len(st.Quals) != 1 {
		t.Fatalf("delete: %+v", st)
	}

	st, err = Parse(`replace E (salary = 999) where E.name = "Sam"`)
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind != StmtReplace || st.Always || st.Var != "E" {
		t.Fatalf("replace: %+v", st)
	}

	st, err = Parse(`replace ALWAYS Emp (salary = E.salary) where Emp.name = "Mike" and E.name = "Sam"`)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Always || st.Var != "Emp" || !st.Assigns[0].Expr.IsRef() {
		t.Fatalf("always replace: %+v", st)
	}
}

func TestParseCreate(t *testing.T) {
	st, err := Parse("create Emp (name, age, salary, dno)")
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind != StmtCreate || st.Class != "Emp" || len(st.Attrs) != 4 {
		t.Fatalf("create: %+v", st)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"42",
		"frobnicate x",
		"range E is Emp",
		"range of E Emp",
		"retrieve E.name",
		"retrieve (42)",
		"retrieve (E.name) whence E.x = 1",
		"retrieve (E.name) where E.x = 1 or E.y = 2",
		"retrieve (E.name) where 1 = 2 garbage",
		"append to Emp name = 1",
		"append to Emp (name 1)",
		"delete",
		"replace E (x = ) where E.y = 1",
		`retrieve (E.name) where E.x ~ 1`,
		`retrieve (E.name) where "unterminated`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestSplitStatements(t *testing.T) {
	script := `
# a comment
create Emp (name, salary)
range of E is Emp
-- another comment
replace ALWAYS Emp (salary = E.salary)
    where Emp.name = "Mike" and E.name = "Sam"
append to Emp (name = "Mike", salary = 1)
`
	got := SplitStatements(script)
	if len(got) != 4 {
		t.Fatalf("statements = %d: %q", len(got), got)
	}
	if !strings.Contains(got[2], "where") {
		t.Fatalf("continuation line lost: %q", got[2])
	}
}

// fixture builds an engine with Emp/Dept plus the translated ALWAYS rules.
type fixture struct {
	eng   *engine.Engine
	in    *Interp
	tr    *Translator
	pl    *joiner.Planner
	stats *metrics.Set
}

func setup(t *testing.T, alwaysStmts []string) *fixture {
	t.Helper()
	return setupWrapped(t, alwaysStmts, func(m match.Matcher) match.Matcher { return m })
}

// setupWrapped is setup with the matcher passed through wrap, for tests
// that inject faults into the maintenance process.
func setupWrapped(t *testing.T, alwaysStmts []string, wrap func(match.Matcher) match.Matcher) *fixture {
	t.Helper()
	classes := map[string][]string{
		"Emp":  {"name", "salary", "dno"},
		"Dept": {"dno", "dname"},
	}
	tr := NewTranslator(classes)
	tr.DeclareRange("E", "Emp")
	tr.DeclareRange("D", "Dept")
	prog, err := lang.Parse("(literalize Emp name salary dno)\n(literalize Dept dno dname)\n")
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range alwaysStmts {
		st, err := Parse(a)
		if err != nil {
			t.Fatal(err)
		}
		prods, err := tr.TranslateAlways(st)
		if err != nil {
			t.Fatal(err)
		}
		prog.Productions = append(prog.Productions, prods...)
	}
	set, err := rules.Compile(prog)
	if err != nil {
		t.Fatalf("translated rules do not compile: %v", err)
	}
	stats := &metrics.Set{}
	db := relation.NewDB(stats)
	if err := rules.BuildDB(set, db); err != nil {
		t.Fatal(err)
	}
	pl := joiner.NewPlanner(db, stats)
	core, err := matchers.New("core", set, db, conflict.NewSet(set, stats), stats)
	if err != nil {
		t.Fatal(err)
	}
	m := wrap(core)
	m.SetPlanner(pl)
	eng := engine.New(set, db, m, stats, engine.Config{})
	if err := eng.LoadFacts(prog); err != nil {
		t.Fatal(err)
	}
	return &fixture{eng: eng, in: NewInterp(eng, tr, set, pl), tr: tr, pl: pl, stats: stats}
}

func (f *fixture) mustExec(t *testing.T, stmt string) *Result {
	t.Helper()
	r, err := f.in.Exec(stmt)
	if err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
	return r
}

func TestDMLRoundTrip(t *testing.T) {
	f := setup(t, nil)
	f.mustExec(t, `append to Emp (name = "Ann", salary = 500, dno = 1)`)
	f.mustExec(t, `append to Emp (name = "Bob", salary = 900, dno = 2)`)
	f.mustExec(t, `append to Dept (dno = 1, dname = "Toy")`)

	r := f.mustExec(t, `retrieve (E.name, E.salary)`)
	want := [][]string{{"Ann", "500"}, {"Bob", "900"}}
	if !reflect.DeepEqual(r.Rows, want) {
		t.Fatalf("retrieve = %v", r.Rows)
	}
	// Join through the qualification.
	r = f.mustExec(t, `retrieve (E.name, D.dname) where E.dno = D.dno`)
	if len(r.Rows) != 1 || r.Rows[0][0] != "Ann" || r.Rows[0][1] != "Toy" {
		t.Fatalf("join retrieve = %v", r.Rows)
	}
	// Replace.
	r = f.mustExec(t, `replace E (salary = 1000) where E.name = "Ann"`)
	if r.Affected != 1 {
		t.Fatalf("replace affected = %d", r.Affected)
	}
	r = f.mustExec(t, `retrieve (E.salary) where E.name = "Ann"`)
	if len(r.Rows) != 1 || r.Rows[0][0] != "1000" {
		t.Fatalf("after replace = %v", r.Rows)
	}
	// Delete.
	r = f.mustExec(t, `delete E where E.salary >= 1000`)
	if r.Affected != 1 {
		t.Fatalf("delete affected = %d", r.Affected)
	}
	r = f.mustExec(t, `retrieve (E.name)`)
	if len(r.Rows) != 1 || r.Rows[0][0] != "Bob" {
		t.Fatalf("after delete = %v", r.Rows)
	}
}

// TestPaperALWAYSTrigger reproduces §2.3's example verbatim: Mike's
// salary always equals Sam's.
func TestPaperALWAYSTrigger(t *testing.T) {
	f := setup(t, []string{
		`replace ALWAYS Emp (salary = E.salary) where Emp.name = "Mike" and E.name = "Sam"`,
	})
	f.mustExec(t, `append to Emp (name = "Sam", salary = 900, dno = 1)`)
	r := f.mustExec(t, `append to Emp (name = "Mike", salary = 500, dno = 1)`)
	if r.Fired == 0 {
		t.Fatal("trigger should fire when Mike enters underpaid")
	}
	rows := f.mustExec(t, `retrieve (E.salary) where E.name = "Mike"`).Rows
	if len(rows) != 1 || rows[0][0] != "900" {
		t.Fatalf("Mike's salary = %v, want 900", rows)
	}
	// The paper's own update: "replace EMP (salary = 1000) where
	// EMP.name = 'Sam'" — the trigger must propagate to Mike.
	r = f.mustExec(t, `replace E (salary = 1000) where E.name = "Sam"`)
	if r.Fired == 0 {
		t.Fatal("trigger should re-fire after Sam's raise")
	}
	rows = f.mustExec(t, `retrieve (E.salary) where E.name = "Mike"`).Rows
	if len(rows) != 1 || rows[0][0] != "1000" {
		t.Fatalf("Mike's salary after Sam's raise = %v, want 1000", rows)
	}
}

func TestDeleteAlwaysTrigger(t *testing.T) {
	f := setup(t, []string{
		`delete ALWAYS E where E.salary < 0`,
	})
	f.mustExec(t, `append to Emp (name = "Ok", salary = 10, dno = 1)`)
	r := f.mustExec(t, `append to Emp (name = "Bad", salary = -5, dno = 1)`)
	if r.Fired == 0 {
		t.Fatal("delete trigger should fire")
	}
	rows := f.mustExec(t, `retrieve (E.name)`).Rows
	if len(rows) != 1 || rows[0][0] != "Ok" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestAppendAlwaysTrigger(t *testing.T) {
	// Every Toy-department employee gets a default Dept row created once.
	f := setup(t, []string{
		`append ALWAYS Dept (dno = E.dno, dname = "auto") where E.salary > 100`,
	})
	f.mustExec(t, `append to Emp (name = "Ann", salary = 500, dno = 7)`)
	rows := f.mustExec(t, `retrieve (D.dno, D.dname)`).Rows
	if len(rows) != 1 || rows[0][0] != "7" || rows[0][1] != "auto" {
		t.Fatalf("auto dept = %v", rows)
	}
	// Quiescence: a second identical employee does not duplicate the row.
	f.mustExec(t, `append to Emp (name = "Bob", salary = 600, dno = 7)`)
	rows = f.mustExec(t, `retrieve (D.dno)`).Rows
	if len(rows) != 1 {
		t.Fatalf("dept duplicated: %v", rows)
	}
}

func TestTranslateReplaceAlwaysShape(t *testing.T) {
	tr := NewTranslator(map[string][]string{"Emp": {"name", "salary", "dno"}})
	tr.DeclareRange("E", "Emp")
	st, err := Parse(`replace ALWAYS Emp (salary = E.salary) where Emp.name = "Mike" and E.name = "Sam"`)
	if err != nil {
		t.Fatal(err)
	}
	prods, err := tr.TranslateAlways(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(prods) != 1 {
		t.Fatalf("productions = %d", len(prods))
	}
	src := prods[0].String()
	for _, want := range []string{"^name Sam", "^salary <q0>", "^name Mike", "^salary <> <q0>", "(modify 2 ^salary <q0>)"} {
		if !strings.Contains(src, want) {
			t.Fatalf("translation missing %q:\n%s", want, src)
		}
	}
	// And it must compile.
	full := "(literalize Emp name salary dno)\n" + src
	if _, _, err := rules.CompileSource(full); err != nil {
		t.Fatalf("translated production does not compile: %v\n%s", err, src)
	}
}

func TestTranslateErrors(t *testing.T) {
	tr := NewTranslator(map[string][]string{"Emp": {"name", "salary"}})
	cases := []string{
		`replace ALWAYS Ghost (salary = 1)`,
		`replace ALWAYS Emp (ghost = 1)`,
		`replace ALWAYS Emp (salary = X.salary)`,
		`delete ALWAYS X where X.salary < 0`,
		`append ALWAYS Emp (salary = 1)`, // no range variable in qual
		`append ALWAYS Ghost (x = 1) where Emp.salary > 0`,
	}
	for _, src := range cases {
		st, err := Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if _, err := tr.TranslateAlways(st); err == nil {
			t.Errorf("TranslateAlways(%q) should fail", src)
		}
	}
	notAlways, _ := Parse(`replace Emp (salary = 1)`)
	if _, err := tr.TranslateAlways(notAlways); err == nil {
		t.Error("non-ALWAYS statement should be rejected")
	}
	alwaysRetrieve := &Stmt{Kind: StmtRetrieve, Always: true}
	if _, err := tr.TranslateAlways(alwaysRetrieve); err == nil {
		t.Error("retrieve ALWAYS should be rejected")
	}
}

func TestInterpRejectsDefinitionStatements(t *testing.T) {
	f := setup(t, nil)
	if _, err := f.in.Exec(`create X (a)`); err == nil {
		t.Error("create at runtime should fail")
	}
	if _, err := f.in.Exec(`replace ALWAYS Emp (salary = 1)`); err == nil {
		t.Error("ALWAYS at runtime should fail")
	}
	if _, err := f.in.Exec(`retrieve (Z.name)`); err == nil {
		t.Error("unknown range variable should fail")
	}
	if _, err := f.in.Exec(`retrieve (E.ghost)`); err == nil {
		t.Error("unknown attribute should fail")
	}
	if _, err := f.in.Exec(`append to Emp (name = E.name)`); err == nil {
		t.Error("non-constant append should fail")
	}
	// A constant-only qualification is legal (it is just always true or
	// always false); no rows, no error.
	if _, err := f.in.Exec(`retrieve (E.name) where 1 = 2`); err != nil {
		t.Errorf("constant qualification: %v", err)
	}
}

func TestRuntimeRangeDeclaration(t *testing.T) {
	f := setup(t, nil)
	f.mustExec(t, `append to Emp (name = "Ann", salary = 1, dno = 1)`)
	f.mustExec(t, `range of Worker is Emp`)
	rows := f.mustExec(t, `retrieve (Worker.name)`).Rows
	if len(rows) != 1 || rows[0][0] != "Ann" {
		t.Fatalf("rows = %v", rows)
	}
}
