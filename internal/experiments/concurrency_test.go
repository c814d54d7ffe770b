package experiments

import (
	"fmt"
	"io"
	"testing"

	"prodsys/internal/conflict"
	"prodsys/internal/engine"
	"prodsys/internal/matchers"
	"prodsys/internal/metrics"
	"prodsys/internal/relation"
	"prodsys/internal/rules"
	"prodsys/internal/workload"
)

// program is one §5.2 workload: rules with initial facts, plus extra
// asserted tuples.
type program struct {
	name  string
	src   string
	extra []workload.Op
}

// racers builds n rules racing to remove the one token and record who won.
func racers(n int) string {
	src := "(literalize A x)\n(literalize W who)\n"
	for i := 1; i <= n; i++ {
		src += fmt.Sprintf("(p P%d (A ^x token) --> (remove 1) (make W ^who p%d))\n", i, i)
	}
	return src + "(A token)"
}

// buildEngine compiles the program, loads its facts and extra ops, and
// returns an engine over the named matcher.
func buildEngine(t *testing.T, p program, matcher string, cfg engine.Config) *engine.Engine {
	t.Helper()
	set, prog, err := rules.CompileSource(p.src)
	if err != nil {
		t.Fatal(err)
	}
	stats := &metrics.Set{}
	db := relation.NewDB(stats)
	if err := rules.BuildDB(set, db); err != nil {
		t.Fatal(err)
	}
	m, err := matchers.New(matcher, set, db, conflict.NewSet(set, stats), stats)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Out = io.Discard
	e := engine.New(set, db, m, stats, cfg)
	if err := e.LoadFacts(prog); err != nil {
		t.Fatal(err)
	}
	for _, op := range p.extra {
		if _, err := e.Assert(op.Class, op.Tuple); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// serialOutcomes executes every possible serial selection order of the
// program (the arbitrary Select of §2.1) over the core matcher and
// returns the distinct final WM states and the number of serial
// schedules. Each schedule rebuilds the engine and replays its prefix:
// exponential, but exact, and the workloads are tiny.
func serialOutcomes(t *testing.T, p program) (states map[string]bool, schedules int) {
	t.Helper()
	states = map[string]bool{}
	var explore func(trace []conflict.Key)
	explore = func(trace []conflict.Key) {
		if schedules > 5000 {
			t.Fatalf("%s: more than 5000 serial schedules", p.name)
		}
		e := buildEngine(t, p, "core", engine.Config{})
		for _, key := range trace {
			var in *conflict.Instantiation
			for _, cand := range e.ConflictSet().SelectAll() {
				if cand.Key() == key {
					in = cand
				}
			}
			if in == nil {
				return
			}
			if _, err := e.Fire(in); err != nil {
				t.Fatal(err)
			}
		}
		avail := e.ConflictSet().SelectAll()
		if len(avail) == 0 {
			schedules++
			states[e.SnapshotWM()] = true
			return
		}
		for _, in := range avail {
			explore(append(trace[:len(trace):len(trace)], in.Key()))
		}
	}
	explore(nil)
	return states, schedules
}

// TestE6AllWorkloadsSerializable is the §5.2 oracle: "the concurrent
// production system will execute an equivalent serial schedule." Ten
// concurrent runs of every workload under every matcher must each end in
// one of the exhaustively enumerated serial outcomes (rete's firing order
// within a round follows map iteration, so its runs can differ).
func TestE6AllWorkloadsSerializable(t *testing.T) {
	const runs = 10
	programs := []program{
		{name: "racing removers", src: racers(2)},
		{name: "make-once negation", src: `
(literalize A x)
(literalize B x)
(p Once (A ^x <v>) - (B ^x marker) --> (make B ^x marker))
(A 1) (A 2) (A 3)`},
		{name: "eight-racer make-once", src: `
(literalize A x)
(literalize B x)
(p MakeOnce (A ^x <v>) - (B ^x marker) --> (make B ^x marker))
(A 1) (A 2) (A 3) (A 4) (A 5) (A 6) (A 7) (A 8)`},
		{name: "independent tasks", src: workload.TaskRules(3, false), extra: workload.TaskFacts(3, false, 3)},
		{name: "pipeline", src: `
(literalize S n)
(p s1 (S ^n one) --> (remove 1) (make S ^n two))
(p s2 (S ^n two) --> (remove 1) (make S ^n three))
(S one)`},
	}
	for _, p := range programs {
		states, _ := serialOutcomes(t, p)
		for _, m := range matchers.Names() {
			for run := 0; run < runs; run++ {
				e := buildEngine(t, p, m, engine.Config{})
				if _, err := e.RunConcurrent(); err != nil {
					t.Fatal(err)
				}
				if !states[e.SnapshotWM()] {
					t.Fatalf("%s: %s ended outside the %d serial outcomes:\n%s",
						p.name, m, len(states), e.SnapshotWM())
				}
			}
		}
	}
}

// TestE8ScheduleCounts checks §5.2's second benefit measure, "the number
// of possible choices of actions that can be executed at any instant":
// n independent transactions admit n! serial schedules that all reach
// one state; n conflicting ones admit n schedules with n distinct states.
func TestE8ScheduleCounts(t *testing.T) {
	cases := []struct {
		p                   program
		psi1, sched, states int
	}{
		{program{"2 independent", workload.TaskRules(2, false), workload.TaskFacts(2, false, 2)}, 2, 2, 1},
		{program{"3 independent", workload.TaskRules(3, false), workload.TaskFacts(3, false, 3)}, 3, 6, 1},
		{program{"4 independent", workload.TaskRules(4, false), workload.TaskFacts(4, false, 4)}, 4, 24, 1},
		{program{"2 conflicting", racers(2), nil}, 2, 2, 2},
		{program{"3 conflicting", racers(3), nil}, 3, 3, 3},
	}
	for _, c := range cases {
		if psi1 := buildEngine(t, c.p, "core", engine.Config{}).ConflictSet().Len(); psi1 != c.psi1 {
			t.Errorf("%s: initial conflict set %d, want %d", c.p.name, psi1, c.psi1)
		}
		states, schedules := serialOutcomes(t, c.p)
		if schedules != c.sched || len(states) != c.states {
			t.Errorf("%s: %d schedules, %d states; want %d, %d", c.p.name, schedules, len(states), c.sched, c.states)
		}
	}
}
