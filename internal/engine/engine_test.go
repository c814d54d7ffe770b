package engine

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"prodsys/internal/conflict"
	"prodsys/internal/matchers"
	"prodsys/internal/metrics"
	"prodsys/internal/relation"
	"prodsys/internal/rules"
	"prodsys/internal/value"
)

// harness builds an engine over the given source with the named matcher.
func harness(t *testing.T, src, matcherName string, cfg Config) *Engine {
	t.Helper()
	set, prog, err := rules.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	stats := &metrics.Set{}
	db := relation.NewDB(stats)
	if err := rules.BuildDB(set, db); err != nil {
		t.Fatal(err)
	}
	m, err := matchers.New(matcherName, set, db, conflict.NewSet(set, stats), stats)
	if err != nil {
		t.Fatal(err)
	}
	e := New(set, db, m, stats, cfg)
	if err := e.LoadFacts(prog); err != nil {
		t.Fatal(err)
	}
	return e
}

var matcherNames = []string{"rete", "requery", "core"}

const simplifySrc = `
(literalize Goal type object)
(literalize Expression name arg1 op arg2)

(p PlusOX
    (Goal ^type Simplify ^object <N>)
    (Expression ^name <N> ^arg1 0 ^op + ^arg2 <X>)
  -->
    (modify 2 ^op nil ^arg1 nil))

(p TimesOX
    (Goal ^type Simplify ^object <N>)
    (Expression ^name <N> ^arg1 0 ^op * ^arg2 <X>)
  -->
    (modify 2 ^op nil ^arg1 nil))

(Goal Simplify e1)
(Goal Simplify e2)
(Expression e1 0 + 7)
(Expression e2 0 * 9)
(Expression e3 0 + 5)
`

func TestSerialSimplification(t *testing.T) {
	for _, name := range matcherNames {
		t.Run(name, func(t *testing.T) {
			e := harness(t, simplifySrc, name, Config{})
			res, err := e.RunSerial()
			if err != nil {
				t.Fatal(err)
			}
			if res.Firings != 2 {
				t.Fatalf("firings = %d, want 2 (e1 and e2; e3 has no goal)", res.Firings)
			}
			// Both goal expressions were simplified; e3 untouched.
			wm := e.SnapshotWM()
			if !strings.Contains(wm, "Expression(e1, nil, nil, 7)") {
				t.Errorf("e1 not simplified:\n%s", wm)
			}
			if !strings.Contains(wm, "Expression(e2, nil, nil, 9)") {
				t.Errorf("e2 not simplified:\n%s", wm)
			}
			if !strings.Contains(wm, "Expression(e3, 0, +, 5)") {
				t.Errorf("e3 should be untouched:\n%s", wm)
			}
		})
	}
}

const payrollRunSrc = `
(literalize Emp name salary manager)
(p R1
    (Emp ^name <N> ^salary <S> ^manager <M>)
    (Emp ^name <M> ^salary {<S1> < <S>})
  -->
    (remove 1))
(Emp Mike 1000 Sam)
(Emp Sam 900 Pat)
(Emp Pat 2000 nobody)
`

func TestSerialPayrollRemoval(t *testing.T) {
	for _, name := range matcherNames {
		t.Run(name, func(t *testing.T) {
			e := harness(t, payrollRunSrc, name, Config{})
			res, err := e.RunSerial()
			if err != nil {
				t.Fatal(err)
			}
			// Mike earns more than manager Sam: Mike removed. Sam earns
			// less than Pat; Pat's manager does not exist.
			if res.Firings != 1 {
				t.Fatalf("firings = %d, want 1", res.Firings)
			}
			wm := e.SnapshotWM()
			if strings.Contains(wm, "Mike") {
				t.Errorf("Mike should be removed:\n%s", wm)
			}
			if !strings.Contains(wm, "Sam") || !strings.Contains(wm, "Pat") {
				t.Errorf("Sam and Pat should survive:\n%s", wm)
			}
		})
	}
}

func TestHaltStopsExecution(t *testing.T) {
	src := `
(literalize A x)
(p Stop (A ^x 1) --> (halt))
(p Spawn (A ^x <v>) --> (make A ^x 1))
(A 5)
`
	e := harness(t, src, "rete", Config{Strategy: conflict.Priority{}})
	res, err := e.RunSerial()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted {
		t.Fatal("halt should stop the run")
	}
}

func TestWriteAndBindActions(t *testing.T) {
	src := `
(literalize A x)
(p Announce (A ^x <v>) --> (bind <msg> hello) (write <msg> <v>))
(A 42)
`
	var out bytes.Buffer
	e := harness(t, src, "core", Config{Out: &out})
	if _, err := e.RunSerial(); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(out.String()); got != "hello 42" {
		t.Fatalf("write output = %q", got)
	}
}

func TestFiringCap(t *testing.T) {
	src := `
(literalize A x)
(p Loop (A ^x <v>) --> (make A ^x <v>))
(A 1)
`
	e := harness(t, src, "rete", Config{MaxFirings: 25})
	_, err := e.RunSerial()
	if err == nil || !strings.Contains(err.Error(), "firing cap") {
		t.Fatalf("expected firing cap error, got %v", err)
	}
}

// TestFiringCapQuiescentAtCap checks that a run whose last eligible
// instantiation is its MaxFirings-th firing ends quiescent, not with the
// cap error, in all three batch modes.
func TestFiringCapQuiescentAtCap(t *testing.T) {
	src := `
(literalize A x)
(literalize Log x)
(p Note (A ^x <v>) --> (make Log ^x <v>))
(A 1) (A 2)
`
	for _, mode := range []struct {
		name string
		cfg  Config
		run  func(*Engine) (Result, error)
	}{
		{"serial", Config{MaxFirings: 2}, (*Engine).RunSerial},
		{"set-at-a-time", Config{MaxFirings: 2, SetAtATime: true}, (*Engine).RunSerial},
		{"concurrent", Config{MaxFirings: 2}, (*Engine).RunConcurrent},
	} {
		t.Run(mode.name, func(t *testing.T) {
			e := harness(t, src, "core", mode.cfg)
			res, err := mode.run(e)
			if err != nil {
				t.Fatalf("quiescent at the cap: err = %v, want nil", err)
			}
			if res.Firings != 2 || len(e.ConflictSet().SelectAll()) != 0 {
				t.Fatalf("firings = %d, eligible left = %d; want 2 and 0", res.Firings, len(e.ConflictSet().SelectAll()))
			}
		})
	}
}

func TestRefractionPreventsRefiring(t *testing.T) {
	// A rule that does not falsify its own LHS fires once per
	// instantiation, not forever.
	src := `
(literalize A x)
(literalize Log x)
(p Note (A ^x <v>) --> (make Log ^x <v>))
(A 1)
(A 2)
`
	e := harness(t, src, "rete", Config{})
	res, err := e.RunSerial()
	if err != nil {
		t.Fatal(err)
	}
	if res.Firings != 2 {
		t.Fatalf("firings = %d, want 2", res.Firings)
	}
	if n := e.DB().MustGet("Log").Len(); n != 2 {
		t.Fatalf("Log size = %d", n)
	}
}

func TestSerialStrategiesDiffer(t *testing.T) {
	src := `
(literalize A x)
(literalize Done by)
(p First  (A ^x <v>) - (Done ^by winner) --> (make Done ^by winner) (halt))
(p Second (A ^x <v>) - (Done ^by winner) --> (make Done ^by winner) (halt))
(A 1)
`
	// Priority selects rule First (lower index).
	e := harness(t, src, "rete", Config{Strategy: conflict.Priority{}})
	if _, err := e.RunSerial(); err != nil {
		t.Fatal(err)
	}
	key := func(s string) conflict.Key {
		k, ok := conflict.ParseKey(e.set, s)
		if !ok {
			t.Fatalf("key %q names no rule", s)
		}
		return k
	}
	if e.ConflictSet().HasFired(key("Second|1|0")) {
		t.Error("Priority should fire First")
	}
	if !e.ConflictSet().HasFired(key("First|1|0")) {
		t.Error("First should have fired")
	}
}

const forwardChainSrc = `
(literalize Item n)
(literalize Stage n)
(p Advance1 (Stage ^n one) (Item ^n <i>) --> (remove 1) (make Stage ^n two))
(p Advance2 (Stage ^n two) --> (remove 1) (make Stage ^n three))
(Stage one)
(Item 1)
`

func TestForwardChaining(t *testing.T) {
	for _, name := range matcherNames {
		t.Run(name, func(t *testing.T) {
			e := harness(t, forwardChainSrc, name, Config{})
			res, err := e.RunSerial()
			if err != nil {
				t.Fatal(err)
			}
			if res.Firings != 2 {
				t.Fatalf("firings = %d, want 2", res.Firings)
			}
			if !strings.Contains(e.SnapshotWM(), "Stage(three)") {
				t.Fatalf("should reach stage three:\n%s", e.SnapshotWM())
			}
		})
	}
}

func TestConcurrentEquivalentToSerialCommutative(t *testing.T) {
	// Independent rule instantiations: concurrent and serial runs must
	// reach the same final WM.
	src := `
(literalize Task id)
(literalize Done id)
(p Finish (Task ^id <i>) --> (remove 1) (make Done ^id <i>))
(Task 1) (Task 2) (Task 3) (Task 4) (Task 5) (Task 6)
`
	for _, name := range matcherNames {
		t.Run(name, func(t *testing.T) {
			serial := harness(t, src, name, Config{})
			sres, err := serial.RunSerial()
			if err != nil {
				t.Fatal(err)
			}
			conc := harness(t, src, name, Config{})
			cres, err := conc.RunConcurrent()
			if err != nil {
				t.Fatal(err)
			}
			if sres.Firings != 6 || cres.Firings != 6 {
				t.Fatalf("firings serial=%d concurrent=%d", sres.Firings, cres.Firings)
			}
			if serial.SnapshotWM() != conc.SnapshotWM() {
				t.Fatalf("states differ:\nserial:\n%s\nconcurrent:\n%s",
					serial.SnapshotWM(), conc.SnapshotWM())
			}
		})
	}
}

func TestConcurrentConflictingRemovesSerializable(t *testing.T) {
	// Two rules race to remove the same tuple; exactly one may win and
	// the final state must be one of the two serial outcomes.
	src := `
(literalize A x)
(literalize W who)
(p P1 (A ^x token) --> (remove 1) (make W ^who p1))
(p P2 (A ^x token) --> (remove 1) (make W ^who p2))
(A token)
`
	serialOutcomes := map[string]bool{}
	for _, strat := range []conflict.Strategy{conflict.FIFO{}, conflict.LEX{}, conflict.Priority{}} {
		e := harness(t, src, "rete", Config{Strategy: strat})
		if _, err := e.RunSerial(); err != nil {
			t.Fatal(err)
		}
		serialOutcomes[e.SnapshotWM()] = true
	}
	// Also the symmetric outcome (P2 first) is a legal serial schedule.
	// Determine both outcomes explicitly:
	if len(serialOutcomes) == 0 {
		t.Fatal("no serial outcomes")
	}
	for i := 0; i < 10; i++ {
		e := harness(t, src, "rete", Config{})
		res, err := e.RunConcurrent()
		if err != nil {
			t.Fatal(err)
		}
		if res.Firings != 1 {
			t.Fatalf("exactly one of the racers may fire, fired %d (aborts %d)", res.Firings, res.Aborts)
		}
		got := e.SnapshotWM()
		if !strings.Contains(got, "W(p1)") && !strings.Contains(got, "W(p2)") {
			t.Fatalf("final state is no serial outcome:\n%s", got)
		}
		if strings.Contains(got, "A(token)") {
			t.Fatalf("token should be consumed:\n%s", got)
		}
	}
}

func TestConcurrentNegationMakeOnce(t *testing.T) {
	// N instantiations each want to create the unique marker; the
	// relation-level lock on the negated class admits exactly one.
	src := `
(literalize A x)
(literalize B x)
(p MakeOnce (A ^x <v>) - (B ^x marker) --> (make B ^x marker))
(A 1) (A 2) (A 3) (A 4) (A 5) (A 6)
`
	for i := 0; i < 5; i++ {
		e := harness(t, src, "requery", Config{})
		res, err := e.RunConcurrent()
		if err != nil {
			t.Fatal(err)
		}
		if n := e.DB().MustGet("B").Len(); n != 1 {
			t.Fatalf("marker created %d times (firings %d, aborts %d)", n, res.Firings, res.Aborts)
		}
	}
}

func TestConcurrentChainedRounds(t *testing.T) {
	// Firings in round 1 enable round 2 (the Ψ→Ψ' evolution of §5.2).
	e := harness(t, forwardChainSrc, "core", Config{})
	res, err := e.RunConcurrent()
	if err != nil {
		t.Fatal(err)
	}
	if res.Firings != 2 || res.Cycles < 2 {
		t.Fatalf("firings=%d cycles=%d", res.Firings, res.Cycles)
	}
	if !strings.Contains(e.SnapshotWM(), "Stage(three)") {
		t.Fatalf("should reach stage three:\n%s", e.SnapshotWM())
	}
}

func TestAssertRetractDirect(t *testing.T) {
	e := harness(t, `
(literalize A x)
(p Any (A ^x <v>) --> (halt))`, "rete", Config{})
	id, err := e.Assert("A", relation.Tuple{value.OfInt(7)})
	if err != nil {
		t.Fatal(err)
	}
	if e.ConflictSet().Len() != 1 {
		t.Fatal("assert should reach the matcher")
	}
	if err := e.Retract("A", id); err != nil {
		t.Fatal(err)
	}
	if e.ConflictSet().Len() != 0 {
		t.Fatal("retract should reach the matcher")
	}
	if _, err := e.Assert("Nope", relation.Tuple{value.OfInt(1)}); err == nil {
		t.Error("unknown class assert should fail")
	}
	if err := e.Retract("Nope", 1); err == nil {
		t.Error("unknown class retract should fail")
	}
	if e.Matcher().Name() != "rete" || e.DB() == nil {
		t.Error("accessors")
	}
}

const monkeySrc = `
(literalize Monkey at on holds)
(literalize Thing name at)
(literalize Goal want status)
(p done
    (Goal ^want bananas ^status active)
    (Monkey ^holds bananas)
  -->
    (modify 1 ^status satisfied)
    (halt))
(p grab
    (Goal ^want bananas ^status active)
    (Monkey ^at <p> ^on ladder ^holds nothing)
    (Thing ^name bananas ^at <p>)
  -->
    (modify 2 ^holds bananas))
(p climb
    (Goal ^want bananas ^status active)
    (Monkey ^at <p> ^on floor)
    (Thing ^name ladder ^at <p>)
    (Thing ^name bananas ^at <p>)
  -->
    (modify 2 ^on ladder))
(p push-ladder
    (Goal ^want bananas ^status active)
    (Monkey ^at <p> ^on floor ^holds nothing)
    (Thing ^name ladder ^at <p>)
    (Thing ^name bananas ^at {<b> <> <p>})
  -->
    (modify 2 ^at <b>)
    (modify 3 ^at <b>))
(p walk-to-ladder
    (Goal ^want bananas ^status active)
    (Monkey ^at <p> ^on floor)
    (Thing ^name ladder ^at {<q> <> <p>})
  -->
    (modify 2 ^at <q>))
(Monkey corner floor nothing)
(Thing ladder window)
(Thing bananas centre)
(Goal bananas active)
`

// TestMonkeyAndBananasAllMatchers runs the classic planning program to
// completion with every matcher, checking the same 5-step plan emerges.
func TestMonkeyAndBananasAllMatchers(t *testing.T) {
	for _, name := range []string{"rete", "requery", "core"} {
		t.Run(name, func(t *testing.T) {
			e := harness(t, monkeySrc, name, Config{Strategy: conflict.Priority{}})
			res, err := e.RunSerial()
			if err != nil {
				t.Fatal(err)
			}
			if !res.Halted || res.Firings != 5 {
				t.Fatalf("firings=%d halted=%v", res.Firings, res.Halted)
			}
			wm := e.SnapshotWM()
			if !strings.Contains(wm, "Monkey(centre, ladder, bananas)") {
				t.Fatalf("monkey did not get the bananas:\n%s", wm)
			}
			if !strings.Contains(wm, "Goal(bananas, satisfied)") {
				t.Fatalf("goal not satisfied:\n%s", wm)
			}
		})
	}
}

func TestCallAction(t *testing.T) {
	e := harness(t, `
(literalize A x)
(p notify (A ^x <v>) --> (call record hello <v>))
(A 42)
`, "core", Config{})
	var got [][]string
	e.RegisterFunc("record", func(args []value.V) error {
		strs := make([]string, len(args))
		for i, v := range args {
			strs[i] = v.String()
		}
		got = append(got, strs)
		return nil
	})
	if _, err := e.RunSerial(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0][0] != "hello" || got[0][1] != "42" {
		t.Fatalf("call args = %v", got)
	}
}

func TestCallUnregisteredFails(t *testing.T) {
	e := harness(t, `
(literalize A x)
(p bad (A ^x <v>) --> (call missing <v>))
(A 1)
`, "core", Config{})
	if _, err := e.RunSerial(); err == nil || !strings.Contains(err.Error(), "unregistered") {
		t.Fatalf("expected unregistered-function error, got %v", err)
	}
}

func TestCallErrorPropagates(t *testing.T) {
	e := harness(t, `
(literalize A x)
(p failing (A ^x <v>) --> (call boom))
(A 1)
`, "core", Config{})
	e.RegisterFunc("boom", func([]value.V) error {
		return errors.New("kaboom")
	})
	if _, err := e.RunSerial(); err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("expected callback error, got %v", err)
	}
}

func TestSetAtATimeFiresWholeRulePerCycle(t *testing.T) {
	src := `
(literalize Task id)
(literalize Done id)
(p fin (Task ^id <i>) --> (remove 1) (make Done ^id <i>))
(Task 1) (Task 2) (Task 3) (Task 4) (Task 5)
`
	tuple := harness(t, src, "core", Config{})
	tres, err := tuple.RunSerial()
	if err != nil {
		t.Fatal(err)
	}
	set := harness(t, src, "core", Config{SetAtATime: true})
	sres, err := set.RunSerial()
	if err != nil {
		t.Fatal(err)
	}
	if tres.Firings != 5 || sres.Firings != 5 {
		t.Fatalf("firings: tuple=%d set=%d", tres.Firings, sres.Firings)
	}
	if tres.Cycles != 5 {
		t.Fatalf("tuple-at-a-time cycles = %d", tres.Cycles)
	}
	if sres.Cycles != 1 {
		t.Fatalf("set-at-a-time cycles = %d, want 1", sres.Cycles)
	}
	if tuple.SnapshotWM() != set.SnapshotWM() {
		t.Fatal("final states differ")
	}
}

func TestSetAtATimeSkipsInvalidated(t *testing.T) {
	// Both instantiations of racer consume the same token: the second
	// batch member is retracted by the first and must be skipped.
	src := `
(literalize A x)
(literalize B y)
(literalize W who)
(p racer (A ^x token) (B ^y <w>) --> (remove 1) (make W ^who <w>))
(A token)
(B b1) (B b2)
`
	e := harness(t, src, "requery", Config{SetAtATime: true})
	res, err := e.RunSerial()
	if err != nil {
		t.Fatal(err)
	}
	if res.Firings != 1 {
		t.Fatalf("firings = %d, want 1 (second batch member invalidated)", res.Firings)
	}
	if e.DB().MustGet("W").Len() != 1 {
		t.Fatalf("W = %v", e.DB().MustGet("W").Len())
	}
}
