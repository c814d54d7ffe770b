package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"prodsys/internal/analysis"
	"prodsys/internal/conflict"
	"prodsys/internal/engine"
	"prodsys/internal/matchers"
	"prodsys/internal/metrics"
	"prodsys/internal/relation"
	"prodsys/internal/rules"
	"prodsys/internal/workload"
)

// buildEngine compiles src, loads its facts and extra ops, and returns an
// engine over the core matcher.
func buildEngine(src string, extra []workload.Op, cfg engine.Config) (*engine.Engine, *metrics.Set, error) {
	return buildEngineOn("core", src, extra, cfg)
}

// buildEngineOn is buildEngine over the named matcher.
func buildEngineOn(matcher, src string, extra []workload.Op, cfg engine.Config) (*engine.Engine, *metrics.Set, error) {
	set, prog, err := rules.CompileSource(src)
	if err != nil {
		return nil, nil, err
	}
	stats := &metrics.Set{}
	db := relation.NewDB(stats)
	if err := rules.BuildDB(set, db); err != nil {
		return nil, nil, err
	}
	m, err := matchers.New(matcher, set, db, conflict.NewSet(set, stats), stats)
	if err != nil {
		return nil, nil, err
	}
	if cfg.Out == nil {
		cfg.Out = io.Discard
	}
	e := engine.New(set, db, m, stats, cfg)
	if err := e.LoadFacts(prog); err != nil {
		return nil, nil, err
	}
	for _, op := range extra {
		if _, err := e.Assert(op.Class, op.Tuple); err != nil {
			return nil, nil, err
		}
	}
	return e, stats, nil
}

// exploreSerialOutcomes exhaustively executes every possible serial
// selection order of a production system (the arbitrary Select of §2.1)
// and returns the set of distinct final WM states, plus the number of
// serial schedules explored. The exploration is exponential; cap guards
// runaway programs.
func exploreSerialOutcomes(src string, extra []workload.Op, cap int) (states map[string]int, schedules int, capped bool) {
	states = map[string]int{}
	var explore func(trace []conflict.Key)
	explore = func(trace []conflict.Key) {
		if schedules >= cap {
			capped = true
			return
		}
		// Rebuild and replay the trace (simple and allocation-heavy, but
		// exact; the workloads are tiny).
		e, _, err := buildEngine(src, extra, engine.Config{})
		if err != nil {
			panic(err)
		}
		replayed := true
		for _, key := range trace {
			in := findInstantiation(e, key)
			if in == nil {
				replayed = false
				break
			}
			e.ConflictSet().MarkFired(in.Key())
			if _, err := e.ApplyForExploration(in); err != nil {
				panic(err)
			}
		}
		if !replayed {
			return
		}
		avail := e.ConflictSet().SelectAll()
		if len(avail) == 0 {
			schedules++
			states[e.SnapshotWM()]++
			return
		}
		for _, in := range avail {
			explore(append(trace[:len(trace):len(trace)], in.Key()))
		}
	}
	explore(nil)
	return states, schedules, capped
}

// findInstantiation locates a live instantiation by key.
func findInstantiation(e *engine.Engine, key conflict.Key) *conflict.Instantiation {
	for _, in := range e.ConflictSet().SelectAll() {
		if in.Key() == key {
			return in
		}
	}
	return nil
}

// e6Workers are the pool sizes E6 runs every workload under.
var e6Workers = []int{1, 2, 4, 8}

// E6Serializability verifies the paper's central §5.2 claim: the final
// state of a concurrent execution equals the final state of SOME serial
// execution. Serial outcomes are enumerated exhaustively; every workload
// then runs concRuns times under each matcher and each pool size of
// e6Workers.
func E6Serializability(concRuns int) Table {
	t := Table{
		ID:    "E6",
		Title: "concurrent execution ≡ some serial execution (exhaustive check)",
		Columns: []string{
			"workload", "serial schedules", "distinct final states", "concurrent runs", "all runs ∈ serial states",
		},
		Note: fmt.Sprintf("for every workload, each concurrent run's final WM — under every matcher, with %v workers — must appear among the exhaustively enumerated serial outcomes (§5.2)", e6Workers),
	}
	cases := []struct {
		name  string
		src   string
		extra []workload.Op
	}{
		{
			name: "racing removers",
			src: `
(literalize A x)
(literalize W who)
(p P1 (A ^x token) --> (remove 1) (make W ^who p1))
(p P2 (A ^x token) --> (remove 1) (make W ^who p2))
(A token)`,
		},
		{
			name: "make-once negation",
			src: `
(literalize A x)
(literalize B x)
(p Once (A ^x <v>) - (B ^x marker) --> (make B ^x marker))
(A 1) (A 2) (A 3)`,
		},
		{
			name: "eight-racer make-once",
			src: `
(literalize A x)
(literalize B x)
(p MakeOnce (A ^x <v>) - (B ^x marker) --> (make B ^x marker))
(A 1) (A 2) (A 3) (A 4) (A 5) (A 6) (A 7) (A 8)`,
		},
		{
			name:  "independent tasks",
			src:   workload.TaskRules(3, false),
			extra: workload.TaskFacts(3, false, 3),
		},
		{
			name: "pipeline",
			src: `
(literalize S n)
(p s1 (S ^n one) --> (remove 1) (make S ^n two))
(p s2 (S ^n two) --> (remove 1) (make S ^n three))
(S one)`,
		},
	}
	for _, c := range cases {
		states, schedules, capped := exploreSerialOutcomes(c.src, c.extra, 5000)
		verdict, runs := "yes", 0
		for _, m := range matchers.Names() {
			for _, w := range e6Workers {
				for run := 0; run < concRuns; run++ {
					e, _, err := buildEngineOn(m, c.src, c.extra, engine.Config{Workers: w})
					if err != nil {
						panic(err)
					}
					if _, err := e.RunConcurrent(); err != nil {
						panic(err)
					}
					runs++
					if _, ok := states[e.SnapshotWM()]; !ok && verdict == "yes" {
						verdict = fmt.Sprintf("NO — serializability violated (%s, %d workers)", m, w)
					}
				}
			}
		}
		sched := fmt.Sprintf("%d", schedules)
		if capped {
			sched += "+"
		}
		t.Rows = append(t.Rows, []string{
			c.name, sched, fmt.Sprintf("%d", len(states)), fmt.Sprintf("%d", runs), verdict,
		})
	}
	return t
}

// E7ConcurrentThroughput measures the concurrent executor against the
// §5.2 cost model: "In the best case … this will be proportional to the
// maximum number of updates to any WM relation or COND relation. In the
// worst case, this will reduce to the time taken for a serial execution."
func E7ConcurrentThroughput(kinds int, tasks int, workerCounts []int) Table {
	t := Table{
		ID:    "E7",
		Title: fmt.Sprintf("concurrent execution, %d rules over %d tasks", kinds, tasks),
		Columns: []string{
			"distribution", "workers", "ms", "rounds", "firings", "aborts", "serial ops", "max rel updates",
		},
		Note: "serial ops counts the non-interleavable maintenance section; max rel updates is the paper's best-case bound (the busiest relation)",
	}
	for _, skewed := range []bool{false, true} {
		label := "uniform"
		if skewed {
			label = "skewed(all rules on one class)"
		}
		src := workload.TaskRules(kinds, skewed)
		facts := workload.TaskFacts(kinds, skewed, tasks)
		for _, w := range workerCounts {
			e, stats, err := buildEngine(src, facts, engine.Config{Workers: w})
			if err != nil {
				panic(err)
			}
			start := time.Now()
			res, err := e.RunConcurrent()
			if err != nil {
				panic(err)
			}
			d := time.Since(start)
			sn := stats.Snapshot()
			maxRel := int64(0)
			for k, v := range sn {
				if strings.HasPrefix(string(k), "updates_") && v > maxRel {
					maxRel = v
				}
			}
			t.Rows = append(t.Rows, []string{
				label,
				fmt.Sprintf("%d", w),
				fmt.Sprintf("%.2f", float64(d.Microseconds())/1e3),
				fmt.Sprintf("%d", res.Cycles),
				fmt.Sprintf("%d", res.Firings),
				fmt.Sprintf("%d", res.Aborts),
				fmt.Sprintf("%d", sn.Get(metrics.SerialOps)),
				fmt.Sprintf("%d", maxRel),
			})
		}
	}
	return t
}

// E8ScheduleCount reports the paper's second benefit measure (§5.2):
// "the number of serializable schedules equivalent to a single serial
// schedule … proportional to the number of possible choices of actions
// that can be executed at any instant."
func E8ScheduleCount() Table {
	t := Table{
		ID:    "E8",
		Title: "serial schedule space vs distinct outcomes",
		Columns: []string{
			"workload", "initial |Ψ1|", "serial schedules", "distinct final states", "schedules per state",
		},
		Note: "independent transactions: n! schedules, one state (maximal concurrency benefit); conflicting transactions: every schedule may give its own state (no safe interleaving)",
	}
	cases := []struct {
		name  string
		src   string
		extra []workload.Op
	}{
		{"2 independent", workload.TaskRules(2, false), workload.TaskFacts(2, false, 2)},
		{"3 independent", workload.TaskRules(3, false), workload.TaskFacts(3, false, 3)},
		{"4 independent", workload.TaskRules(4, false), workload.TaskFacts(4, false, 4)},
		{"2 conflicting", `
(literalize A x)
(literalize W who)
(p P1 (A ^x token) --> (remove 1) (make W ^who p1))
(p P2 (A ^x token) --> (remove 1) (make W ^who p2))
(A token)`, nil},
		{"3 conflicting", `
(literalize A x)
(literalize W who)
(p P1 (A ^x token) --> (remove 1) (make W ^who p1))
(p P2 (A ^x token) --> (remove 1) (make W ^who p2))
(p P3 (A ^x token) --> (remove 1) (make W ^who p3))
(A token)`, nil},
	}
	for _, c := range cases {
		e, _, err := buildEngine(c.src, c.extra, engine.Config{})
		if err != nil {
			panic(err)
		}
		psi1 := e.ConflictSet().Len()
		states, schedules, _ := exploreSerialOutcomes(c.src, c.extra, 5000)
		per := "—"
		if len(states) > 0 {
			per = fmt.Sprintf("%.1f", float64(schedules)/float64(len(states)))
		}
		t.Rows = append(t.Rows, []string{
			c.name,
			fmt.Sprintf("%d", psi1),
			fmt.Sprintf("%d", schedules),
			fmt.Sprintf("%d", len(states)),
			per,
		})
	}
	return t
}

// E13ConcurrencyPotential relates the static rule-interaction analysis
// (the Δadd/Δdel structure of §5.2, the estimates attributed to [RASC87])
// to the concurrent executor's observed behaviour: rule sets with a high
// fraction of independent pairs run with few aborts; fully conflicting
// sets degrade toward serial execution.
func E13ConcurrencyPotential(tasks int) Table {
	t := Table{
		ID:    "E13",
		Title: "static concurrency potential vs measured concurrent behaviour",
		Columns: []string{
			"workload", "rules", "independent pairs", "potential", "firings", "aborts", "abort ratio",
		},
		Note: "potential = fraction of rule pairs that commute (no Δadd/Δdel edge between them); high potential should coincide with low abort ratios in the §5 executor",
	}
	cases := []struct {
		name  string
		src   string
		extra []workload.Op
	}{
		{"8 independent consumers", workload.TaskRules(8, false), workload.TaskFacts(8, false, tasks)},
		{"8 skewed consumers", workload.TaskRules(8, true), workload.TaskFacts(8, true, tasks)},
		{"manufacturing pipeline", workload.ManufacturingRules(), workload.ManufacturingFacts(tasks / 4)},
	}
	for _, c := range cases {
		set, _, err := rules.CompileSource(c.src)
		if err != nil {
			panic(err)
		}
		g := analysis.Build(set)
		indep := 0
		n := len(set.Rules)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if g.Independent(i, j) {
					indep++
				}
			}
		}
		e, _, err := buildEngine(c.src, c.extra, engine.Config{Workers: 4})
		if err != nil {
			panic(err)
		}
		res, err := e.RunConcurrent()
		if err != nil {
			panic(err)
		}
		ratio := 0.0
		if res.Firings > 0 {
			ratio = float64(res.Aborts) / float64(res.Firings)
		}
		t.Rows = append(t.Rows, []string{
			c.name,
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d/%d", indep, n*(n-1)/2),
			fmt.Sprintf("%.2f", g.ConcurrencyPotential()),
			fmt.Sprintf("%d", res.Firings),
			fmt.Sprintf("%d", res.Aborts),
			fmt.Sprintf("%.2f", ratio),
		})
	}
	return t
}
