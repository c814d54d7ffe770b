package prodsys

import (
	"bytes"
	"errors"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
)

const payrollSrc = `
(literalize Emp name salary dno manager)
(literalize Dept dno dname floor)

(p overpaid
    (Emp ^name <N> ^salary <S> ^manager <M>)
    (Emp ^name <M> ^salary {<S1> < <S>})
  -->
    (remove 1))

(Emp Mike 1000 1 Sam)
(Emp Sam 900 1 Pat)
(Emp Pat 2000 1 nobody)
`

func TestLoadAndRunEveryMatcher(t *testing.T) {
	for _, c := range MatcherCases() {
		t.Run(c.Name, func(t *testing.T) {
			sys, err := Load(payrollSrc, Options{Matcher: c.Matcher, Out: io.Discard})
			if err != nil {
				t.Fatal(err)
			}
			if sys.MatcherName() != string(c.Matcher) {
				t.Errorf("MatcherName = %q", sys.MatcherName())
			}
			res, err := sys.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Firings != 1 {
				t.Fatalf("firings = %d", res.Firings)
			}
			if strings.Contains(sys.WM(), "Mike") {
				t.Fatalf("Mike should be gone:\n%s", sys.WM())
			}
		})
	}
}

// TestMatcherPortfolio pins the five product matchers and the retired
// names: rete-shared (now plain rete) and core-parallel (now core) must
// fail to load with ErrUnknownMatcher.
func TestMatcherPortfolio(t *testing.T) {
	want := []Matcher{MatcherRete, MatcherRequery, MatcherCore, MatcherMarker, MatcherPTree}
	if got := Matchers(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Matchers() = %v, want %v", got, want)
	}
	for _, gone := range []Matcher{"rete-shared", "core-parallel"} {
		if _, err := Load(payrollSrc, Options{Matcher: gone, Out: io.Discard}); !errors.Is(err, ErrUnknownMatcher) {
			t.Errorf("Matcher %q: want ErrUnknownMatcher, got %v", gone, err)
		}
	}
}

// TestOneStorage pins the storage surface at one layout: Storages() is
// [row], Load accepts the empty and the row spelling, and the deleted
// columnar name is an unknown storage.
func TestOneStorage(t *testing.T) {
	if got := Storages(); !reflect.DeepEqual(got, []Storage{StorageRow}) {
		t.Fatalf("Storages() = %v, want [row]", got)
	}
	for _, ok := range []Storage{"", StorageRow} {
		if _, err := Load(payrollSrc, Options{Storage: ok, Out: io.Discard}); err != nil {
			t.Errorf("Storage %q: %v", ok, err)
		}
	}
	if _, err := Load(payrollSrc, Options{Storage: "columnar", Out: io.Discard}); !errors.Is(err, ErrUnknownStorage) {
		t.Errorf("Storage \"columnar\": want ErrUnknownStorage, got %v", err)
	}
}

func TestAssertRetractAndConflictKeys(t *testing.T) {
	sys, err := Load(`
(literalize A x y)
(p pair (A ^x <v> ^y <v>) --> (halt))`, Options{Out: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	id, err := sys.Assert("A", 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if keys := sys.ConflictKeys(); len(keys) != 1 {
		t.Fatalf("keys = %v", keys)
	}
	if err := sys.Retract("A", id); err != nil {
		t.Fatal(err)
	}
	if keys := sys.ConflictKeys(); len(keys) != 0 {
		t.Fatalf("keys after retract = %v", keys)
	}
	// Partial assert leaves trailing attributes unset.
	if _, err := sys.Assert("A", 5); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Assert("A", 1, 2, 3); err == nil {
		t.Error("too many values should fail")
	}
	if _, err := sys.Assert("Ghost", 1); err == nil {
		t.Error("unknown class should fail")
	}
	if _, err := sys.Assert("A", struct{}{}); err == nil {
		t.Error("unsupported type should fail")
	}
}

func TestValueConversions(t *testing.T) {
	sys, _ := Load(`(literalize A a b c d)
(p f (A ^a <w> ^b <x> ^c <y>) --> (halt))`, Options{Out: io.Discard})
	if _, err := sys.Assert("A", 1, int64(2), 2.5, "sym"); err != nil {
		t.Fatal(err)
	}
	rows := sys.WMClass("A")
	if len(rows) != 1 || !strings.Contains(rows[0], "2.5") || !strings.Contains(rows[0], "sym") {
		t.Fatalf("rows = %v", rows)
	}
	if got := sys.WMClass("Ghost"); got != nil {
		t.Fatalf("unknown class rows = %v", got)
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(`(p R (Ghost ^x 1) --> (halt))`, Options{}); err == nil {
		t.Error("compile error should propagate")
	}
	if _, err := Load(`(literalize A x)`, Options{Matcher: "bogus"}); !errors.Is(err, ErrUnknownMatcher) {
		t.Errorf("unknown matcher: want ErrUnknownMatcher, got %v", err)
	}
	if _, err := Load(`(literalize A x)`, Options{Strategy: "bogus"}); !errors.Is(err, ErrUnknownStrategy) {
		t.Errorf("unknown strategy: want ErrUnknownStrategy, got %v", err)
	}
	if _, err := Load(`(literalize A x) (Ghost 1)`, Options{}); err == nil {
		t.Error("bad fact should fail")
	}
}

func TestStrategies(t *testing.T) {
	want := []Strategy{StrategyFIFO, StrategyLEX, StrategyPriority, StrategyRandom}
	if got := Strategies(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Strategies() = %v, want %v", got, want)
	}
	for _, s := range Strategies() {
		if _, err := Load(`(literalize A x)`, Options{Strategy: s, Seed: 42}); err != nil {
			t.Errorf("strategy %s: %v", s, err)
		}
	}
	// Legacy string literals still compile and load.
	if _, err := Load(`(literalize A x)`, Options{Strategy: "lex"}); err != nil {
		t.Errorf("legacy strategy literal: %v", err)
	}
}

func TestClassesAndRuleNames(t *testing.T) {
	sys, _ := Load(payrollSrc, Options{Out: io.Discard})
	if got := sys.Classes(); !reflect.DeepEqual(got, []string{"Dept", "Emp"}) {
		t.Fatalf("Classes = %v", got)
	}
	if got := sys.RuleNames(); !reflect.DeepEqual(got, []string{"overpaid"}) {
		t.Fatalf("RuleNames = %v", got)
	}
}

func TestStatsAndFormat(t *testing.T) {
	sys, _ := Load(payrollSrc, Options{Out: io.Discard})
	sys.Run()
	stats := sys.Metrics().Counters
	if stats["rule_firings"] != 1 {
		t.Fatalf("stats = %v", stats)
	}
	out := FormatStats(stats, "rule_")
	if !strings.Contains(out, "rule_firings") || strings.Contains(out, "tuples_inserted") {
		t.Fatalf("FormatStats = %q", out)
	}
	if FormatStats(stats) == "" {
		t.Error("unfiltered FormatStats empty")
	}
}

func TestRulebaseQuery(t *testing.T) {
	src := `
(literalize Emp name age)
(p old   (Emp ^age > 55) --> (halt))
(p young (Emp ^age < 30) --> (halt))
(p any   (Emp ^name <n>) --> (halt))`
	// The condition index is built from the rule set, not the matcher, so
	// every matcher answers alike.
	for _, m := range Matchers() {
		sys, err := Load(src, Options{Matcher: m, Out: io.Discard})
		if err != nil {
			t.Fatal(err)
		}
		got, err := sys.RulebaseQuery("Emp", "age", 55, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, []string{"old", "any"}) {
			t.Fatalf("%s: query = %v, want [old any]", m, got)
		}
		if got, _ := sys.RulebaseQuery("Emp", "age", 10, 20); !reflect.DeepEqual(got, []string{"young", "any"}) {
			t.Fatalf("%s: bounded query = %v, want [young any]", m, got)
		}
	}
}

func TestViewsThroughFacade(t *testing.T) {
	sys, err := Load(`
(literalize Emp name dno)
(literalize Dept dno dname)
(p hire (Dept ^dno <d> ^dname Toy) - (Emp ^dno <d>) --> (make Emp ^name temp ^dno <d>))
(Dept 7 Toy)
`, Options{Out: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	views, err := sys.AttachViews(`
(literalize Emp name dno)
(literalize Dept dno dname)
(p staff (Emp ^name <n> ^dno <d>) (Dept ^dno <d> ^dname <m>) -->)`)
	if err != nil {
		t.Fatal(err)
	}
	if names := views.Names(); len(names) != 1 || names[0] != "staff" {
		t.Fatalf("view names = %v", names)
	}
	n, err := views.Len("staff")
	if err != nil || n != 0 {
		t.Fatalf("initial view size = %d, %v", n, err)
	}
	// Rule execution (the hire trigger) flows into the view.
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	rows, err := views.Rows("staff")
	if err != nil || len(rows) != 1 || !strings.Contains(rows[0], "n=temp") {
		t.Fatalf("view rows = %v, %v", rows, err)
	}
	if _, err := views.Rows("ghost"); err == nil {
		t.Error("unknown view should fail")
	}
	if _, err := views.Len("ghost"); err == nil {
		t.Error("unknown view should fail")
	}
	// Pre-seeded contents: attach views on a system with existing WM.
	sys2, _ := Load(`
(literalize Emp name dno)
(literalize Dept dno dname)
(Emp Ann 7) (Dept 7 Toy)`, Options{Out: io.Discard})
	views2, err := sys2.AttachViews(`
(literalize Emp name dno)
(literalize Dept dno dname)
(p staff (Emp ^name <n> ^dno <d>) (Dept ^dno <d> ^dname <m>) -->)`)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := views2.Len("staff"); n != 1 {
		rows, _ := views2.Rows("staff")
		t.Fatalf("seeded view size = %d: %v", n, rows)
	}
	// Restored contents: RestoreWM after AttachViews reaches the views.
	var dump bytes.Buffer
	if err := sys2.SaveWM(&dump); err != nil {
		t.Fatal(err)
	}
	sys3, _ := Load(`
(literalize Emp name dno)
(literalize Dept dno dname)`, Options{Out: io.Discard})
	views3, err := sys3.AttachViews(`
(literalize Emp name dno)
(literalize Dept dno dname)
(p staff (Emp ^name <n> ^dno <d>) (Dept ^dno <d> ^dname <m>) -->)`)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys3.RestoreWM(&dump); err != nil {
		t.Fatal(err)
	}
	if n, _ := views3.Len("staff"); n != 1 {
		rows, _ := views3.Rows("staff")
		t.Fatalf("view size after RestoreWM = %d, want 1: %v", n, rows)
	}
}

// TestSecondAttachViewsKeepsFirst checks that every attached view set
// stays maintained: a second AttachViews must not replace the first, and
// seeds only its own views.
func TestSecondAttachViewsKeepsFirst(t *testing.T) {
	sys, err := Load("(literalize A x)\n(A 0)", Options{Out: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	va, err := sys.AttachViews("(literalize A x) (p va (A ^x <x>) -->)")
	if err != nil {
		t.Fatal(err)
	}
	vb, err := sys.AttachViews("(literalize A x) (p vb (A ^x <x>) -->)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Assert("A", 1); err != nil {
		t.Fatal(err)
	}
	for _, v := range []struct {
		views *Views
		name  string
	}{{va, "va"}, {vb, "vb"}} {
		if rows, _ := v.views.Rows(v.name); len(rows) != 2 || rows[0] != "x=0 ×1" || rows[1] != "x=1 ×1" {
			t.Errorf("view %s = %v, want x=0 and x=1 once each", v.name, rows)
		}
	}
}

// TestAttachViewsRejectsForeignClasses checks that a view source whose
// literalize disagrees with the system's classes, or declares a class
// the system lacks, is rejected before anything attaches, and that
// writes keep working afterwards.
func TestAttachViewsRejectsForeignClasses(t *testing.T) {
	sys, err := Load("(literalize A x)", Options{Out: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{
		"(literalize A z w) (p vc (A ^w <w>) -->)",
		"(literalize A x) (literalize B y) (p vd (B ^y <y>) -->)",
	} {
		if _, err := sys.AttachViews(src); err == nil {
			t.Errorf("AttachViews(%q) succeeded", src)
		}
	}
	if _, err := sys.Assert("A", 1); err != nil {
		t.Fatalf("write after a rejected attach: %v", err)
	}
}

// TestAttachViewsDuringCommits attaches a view while another goroutine
// commits: every tuple must reach the view exactly once — through the
// seeding scan or the observer — and the attach must not race the
// commits (run under -race).
func TestAttachViewsDuringCommits(t *testing.T) {
	const n = 2000
	sys, err := Load(`(literalize A x)`, Options{Out: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	ids := make([]uint64, n)
	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		for i := range ids {
			if i == n/20 {
				close(started)
			}
			id, err := sys.Assert("A", i)
			if err != nil {
				done <- err
				return
			}
			ids[i] = id
		}
		done <- nil
	}()
	select {
	case <-started:
	case err := <-done:
		t.Fatalf("asserts stopped before the attach: %v", err)
	}
	views, err := sys.AttachViews(`
(literalize A x)
(p all (A ^x <v>) -->)`)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got, _ := views.Len("all"); got != n {
		t.Fatalf("view rows = %d, want %d", got, n)
	}
	for _, id := range ids {
		if err := sys.Retract("A", id); err != nil {
			t.Fatal(err)
		}
	}
	if got, _ := views.Len("all"); got != 0 {
		rows, _ := views.Rows("all")
		t.Fatalf("view rows after retracting everything = %d, want 0: %v", got, rows[:min(len(rows), 5)])
	}
}

func TestWriteOutputThroughFacade(t *testing.T) {
	var buf bytes.Buffer
	sys, _ := Load(`
(literalize A x)
(p say (A ^x <v>) --> (write saw <v>))
(A 9)`, Options{Out: &buf})
	sys.Run()
	if got := strings.TrimSpace(buf.String()); got != "saw 9" {
		t.Fatalf("output = %q", got)
	}
}

func TestRunConcurrentFacade(t *testing.T) {
	sys, err := Load(`
(literalize Task id)
(literalize Done id)
(p fin (Task ^id <i>) --> (remove 1) (make Done ^id <i>))
(Task 1) (Task 2) (Task 3) (Task 4)`, Options{Out: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.RunConcurrent()
	if err != nil {
		t.Fatal(err)
	}
	if res.Firings != 4 {
		t.Fatalf("firings = %d", res.Firings)
	}
}

func TestLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/prog.ops"
	if err := writeFile(path, `(literalize A x) (A 1)`); err != nil {
		t.Fatal(err)
	}
	sys, err := LoadFile(path, Options{Out: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.WMClass("A")) != 1 {
		t.Fatal("fact not loaded")
	}
	if _, err := LoadFile(dir+"/missing.ops", Options{}); err == nil {
		t.Error("missing file should fail")
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

func TestSaveRestoreWM(t *testing.T) {
	src := `
(literalize Emp name dno)
(literalize Dept dno)
(p orphan (Emp ^name <n> ^dno <d>) - (Dept ^dno <d>) --> (halt))
(Emp Ann 7)
(Emp Bob 9)
(Dept 9)
`
	sys, err := Load(src, Options{Out: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	keysBefore := sys.ConflictKeys()
	var buf bytes.Buffer
	if err := sys.SaveWM(&buf); err != nil {
		t.Fatal(err)
	}
	// A fresh system with the same rules but no facts, restored from the
	// dump, must reach the same WM and conflict set.
	fresh, err := Load(`
(literalize Emp name dno)
(literalize Dept dno)
(p orphan (Emp ^name <n> ^dno <d>) - (Dept ^dno <d>) --> (halt))`, Options{Out: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.RestoreWM(&buf); err != nil {
		t.Fatal(err)
	}
	if fresh.WM() != sys.WM() {
		t.Fatalf("WM mismatch:\n%s\nvs\n%s", fresh.WM(), sys.WM())
	}
	if !reflect.DeepEqual(fresh.ConflictKeys(), keysBefore) {
		t.Fatalf("conflict set mismatch: %v vs %v", fresh.ConflictKeys(), keysBefore)
	}
	// File variants.
	dir := t.TempDir()
	path := dir + "/wm.dump"
	if err := sys.SaveWMFile(path); err != nil {
		t.Fatal(err)
	}
	fresh2, _ := Load(`
(literalize Emp name dno)
(literalize Dept dno)`, Options{Out: io.Discard})
	if err := fresh2.RestoreWMFile(path); err != nil {
		t.Fatal(err)
	}
	if len(fresh2.WMClass("Emp")) != 2 {
		t.Fatal("file restore lost tuples")
	}
	if err := fresh2.RestoreWMFile(dir + "/missing"); err == nil {
		t.Error("missing dump file should fail")
	}
	if err := fresh2.SaveWMFile(dir + "/nope/deep/x"); err == nil {
		t.Error("unwritable path should fail")
	}
}

// goldenRuns pins the end-to-end behaviour of the testdata corpus for
// every matcher: firing counts and a WM fragment that must (not) appear.
func TestGoldenCorpus(t *testing.T) {
	cases := []struct {
		file     string
		strategy Strategy
		firings  int
		contains []string
		absent   []string
	}{
		{
			file: "testdata/payroll.ops", strategy: "fifo", firings: 3,
			contains: []string{"Emp(Sam", "Emp(Pat"},
			absent:   []string{"Emp(Mike", "Emp(Ann", "Emp(Bob"},
		},
		{
			file: "testdata/monkey.ops", strategy: "priority", firings: 5,
			contains: []string{"Monkey(centre, ladder, bananas)", "Goal(bananas, satisfied)"},
		},
		{
			file: "testdata/simplify.ops", strategy: "fifo", firings: 2,
			contains: []string{"Expression(e1, nil, nil, 7)", "Expression(e2, nil, nil, 9)", "Expression(e3, 0, +, 5)"},
		},
	}
	for _, tc := range cases {
		for _, c := range MatcherCases() {
			t.Run(tc.file+"/"+c.Name, func(t *testing.T) {
				sys, err := LoadFile(tc.file, Options{Matcher: c.Matcher, Strategy: tc.strategy, Out: io.Discard})
				if err != nil {
					t.Fatal(err)
				}
				res, err := sys.Run()
				if err != nil {
					t.Fatal(err)
				}
				if res.Firings != tc.firings {
					t.Fatalf("firings = %d, want %d", res.Firings, tc.firings)
				}
				wm := sys.WM()
				for _, want := range tc.contains {
					if !strings.Contains(wm, want) {
						t.Errorf("WM missing %q:\n%s", want, wm)
					}
				}
				for _, bad := range tc.absent {
					if strings.Contains(wm, bad) {
						t.Errorf("WM should not contain %q:\n%s", bad, wm)
					}
				}
			})
		}
	}
}

func TestRegisterFuncThroughFacade(t *testing.T) {
	sys, err := Load(`
(literalize Alert level msg)
(p page (Alert ^level critical ^msg <m>) --> (call page ops <m>) (remove 1))
(Alert critical "disk full")
(Alert info "all well")
`, Options{Out: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	var pages []string
	sys.RegisterFunc("page", func(args []string) error {
		pages = append(pages, strings.Join(args, ": "))
		return nil
	})
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Firings != 1 {
		t.Fatalf("firings = %d", res.Firings)
	}
	if len(pages) != 1 || pages[0] != "ops: disk full" {
		t.Fatalf("pages = %v", pages)
	}
}

const quelScript = `
# The paper's §2.3 scenario as a QUEL script.
create Emp (name, salary, dno)
create Dept (dno, dname)
range of E is Emp

replace ALWAYS Emp (salary = E.salary)
    where Emp.name = "Mike" and E.name = "Sam"

append to Emp (name = "Sam", salary = 900, dno = 1)
append to Emp (name = "Mike", salary = 500, dno = 1)
append to Dept (dno = 1, dname = "Toy")
`

func TestLoadQuelPaperScenario(t *testing.T) {
	sys, err := LoadQuel(quelScript, "", Options{Out: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	// The ALWAYS trigger equalized Mike to Sam during loading.
	r, err := sys.Quel(`retrieve (E.salary) where E.name = "Mike"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 1 || r.Rows[0][0] != "900" {
		t.Fatalf("Mike = %v", r.Rows)
	}
	// The paper's update statement re-fires the trigger.
	upd, err := sys.Quel(`replace E (salary = 1000) where E.name = "Sam"`)
	if err != nil {
		t.Fatal(err)
	}
	if upd.Affected != 1 || upd.Fired == 0 {
		t.Fatalf("update: %+v", upd)
	}
	r, _ = sys.Quel(`retrieve (E.name, E.salary)`)
	joined := ""
	for _, row := range r.Rows {
		joined += strings.Join(row, "=") + ";"
	}
	if !strings.Contains(joined, "Mike=1000") || !strings.Contains(joined, "Sam=1000") {
		t.Fatalf("final salaries: %v", r.Rows)
	}
}

func TestLoadQuelWithExtraRules(t *testing.T) {
	// QUEL schema + plain OPS5 rules side by side.
	sys, err := LoadQuel(`
create A (x)
create Log (x)
append to A (x = 5)
`, `(p solo (A ^x > 3) --> (remove 1) (make Log ^x 1))`, Options{Out: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	// The DML statement ran the OPS5 rule to quiescence.
	if n := len(sys.WMClass("Log")); n != 1 {
		t.Fatalf("Log rows = %d", n)
	}
	if n := len(sys.WMClass("A")); n != 0 {
		t.Fatalf("A rows = %d", n)
	}
}

// TestQuelAlwaysConjunctDirection loads one ALWAYS trigger spelled with
// a cross-variable comparison in each direction: both load, fire
// identically, and answer the same ad-hoc retrieves.
func TestQuelAlwaysConjunctDirection(t *testing.T) {
	const schema = `
create Emp (name, salary, dno)
create Dept (dno, dname)
range of E is Emp
range of D is Dept
`
	var systems []*System
	for _, cmp := range []string{"D.dno > E.salary", "E.salary < D.dno"} {
		sys, err := LoadQuel(schema+`append ALWAYS Dept (dno = 9, dname = "x") where E.dno = 1 and D.dno = 2 and `+cmp, "", Options{Out: io.Discard})
		if err != nil {
			t.Fatalf("%s: %v", cmp, err)
		}
		systems = append(systems, sys)
	}
	var wms []string
	for _, sys := range systems {
		fired := 0
		for _, stmt := range []string{
			`append to Emp (name = "low", salary = 1, dno = 1)`,
			`append to Emp (name = "high", salary = 5, dno = 1)`,
			`append to Dept (dno = 2, dname = "two")`,
		} {
			r, err := sys.Quel(stmt)
			if err != nil {
				t.Fatal(err)
			}
			fired += r.Fired
		}
		if fired != 1 {
			t.Fatalf("trigger fired %d times, want 1", fired)
		}
		for _, cmp := range []string{"D.dno > E.salary", "E.salary < D.dno"} {
			r, err := sys.Quel(`retrieve (E.name, D.dname) where E.dno = 1 and ` + cmp)
			if err != nil {
				t.Fatal(err)
			}
			if want := [][]string{{"high", "x"}, {"low", "two"}, {"low", "x"}}; !reflect.DeepEqual(r.Rows, want) {
				t.Fatalf("%s: rows %v", cmp, r.Rows)
			}
		}
		wms = append(wms, sys.WM())
	}
	if wms[0] != wms[1] {
		t.Fatalf("working memories differ:\n%s\n--\n%s", wms[0], wms[1])
	}
}

// TestQuelAlwaysMultiWordString loads a trigger assigning a multi-word
// string constant and checks that it fires.
func TestQuelAlwaysMultiWordString(t *testing.T) {
	sys, err := LoadQuel(`
create Emp (name, salary, dno)
replace ALWAYS Emp (name = "Big Boss") where Emp.salary > 100
append to Emp (name = "Ann", salary = 500, dno = 1)
append to Emp (name = "Bob", salary = 50, dno = 1)
`, "", Options{Out: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	r, err := sys.Quel(`retrieve (Emp.name, Emp.salary)`)
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]string{{"Big Boss", "500"}, {"Bob", "50"}}; !reflect.DeepEqual(r.Rows, want) {
		t.Fatalf("rows %v, want %v", r.Rows, want)
	}
}

func TestLoadQuelErrors(t *testing.T) {
	cases := []string{
		`create A (x)
create A (y)`,
		`range of E is Ghost`,
		`replace ALWAYS Ghost (x = 1)`,
		`create A (x)
retrieve (E.zzz)`,
		`garbage statement`,
	}
	for _, src := range cases {
		if _, err := LoadQuel(src, "", Options{Out: io.Discard}); err == nil {
			t.Errorf("LoadQuel(%q) should fail", src)
		}
	}
}

func TestQuelOnOPSLoadedSystem(t *testing.T) {
	// The QUEL interface also works on systems loaded from OPS5 source.
	sys, err := Load(`
(literalize Emp name salary)
(Emp Ann 100)
(Emp Bob 200)`, Options{Out: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Quel(`range of E is Emp`); err != nil {
		t.Fatal(err)
	}
	r, err := sys.Quel(`retrieve (E.name) where E.salary > 150`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 1 || r.Rows[0][0] != "Bob" {
		t.Fatalf("rows = %v", r.Rows)
	}
	if _, err := sys.Quel(`replace ALWAYS Emp (salary = 1)`); err == nil {
		t.Error("runtime ALWAYS should be rejected")
	}
}
