// Command psbench runs the experiment harness: every figure and
// experiment of the reproduction's DESIGN.md index, printed as aligned
// tables.
//
// Usage:
//
//	psbench                 # run everything at default scale
//	psbench -scale 0.2      # quick pass
//	psbench -exp e2,e7      # selected experiments
//	psbench -list           # list available experiments
//	psbench -trace out.json # trace demo: payroll run, profile + Chrome trace
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"prodsys"
	"prodsys/internal/experiments"
	"prodsys/internal/workload"
)

// registry maps experiment IDs to constructors at default parameters.
func registry(scale float64) map[string]func() experiments.Table {
	n := func(base int) int {
		v := int(float64(base) * scale)
		if v < 1 {
			return 1
		}
		return v
	}
	return map[string]func() experiments.Table{
		"fig1": experiments.Fig1,
		"fig2": experiments.Fig2,
		"fig3": experiments.Fig3,
		"e1":   func() experiments.Table { return experiments.E1PropagationDepth([]int{2, 4, 8, 16, 32}, n(200)) },
		"e2":   func() experiments.Table { return experiments.E2MatchTime([]int{10, 100, 1000}, n(2000)) },
		"e3":   func() experiments.Table { return experiments.E3Space([]int{10, 100}, n(1000)) },
		"e4": func() experiments.Table {
			return experiments.E4FalseDrops([]float64{0, 0.25, 0.5, 0.75, 0.9}, n(1000))
		},
		"e6":  func() experiments.Table { return experiments.E6Serializability(6) },
		"e7":  func() experiments.Table { return experiments.E7ConcurrentThroughput(8, n(64), []int{1, 2, 4, 8}) },
		"e8":  func() experiments.Table { return experiments.E8ScheduleCount() },
		"e9":  func() experiments.Table { return experiments.E9Negation(n(1500)) },
		"e10": func() experiments.Table { return experiments.E10ViewMaintenance(n(500)) },
		"e11": func() experiments.Table { return experiments.E11RuleQuery(n(1000), n(500)) },
		"e12": func() experiments.Table { return experiments.E12SharedNetwork(5, 4, n(800)) },
		"e13": func() experiments.Table { return experiments.E13ConcurrencyPotential(n(64)) },
	}
}

// order is the presentation order.
var order = []string{
	"fig1", "fig2", "fig3",
	"e1", "e2", "e3", "e4", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13",
}

// traceDemo loads the 50-rule payroll program, records a traced batch
// assert plus serial run, prints the per-rule profile, and writes the
// event stream as a Chrome trace_event file (load it at
// chrome://tracing or https://ui.perfetto.dev).
func traceDemo(path, matcher string, nOps int) error {
	sys, err := prodsys.Load(workload.PayrollRules(50, false), prodsys.Options{
		Matcher: prodsys.Matcher(matcher),
		Out:     io.Discard,
	})
	if err != nil {
		return err
	}
	tracer := sys.Trace(prodsys.TraceOptions{})
	b := sys.Batch()
	for _, op := range workload.PayrollOps(1, nOps, 0) {
		vals := make([]any, len(op.Tuple))
		for i, v := range op.Tuple {
			vals[i] = v
		}
		b.Assert(op.Class, vals...)
	}
	if _, err := b.Commit(); err != nil {
		return err
	}
	res, err := sys.Run()
	if err != nil {
		return err
	}
	tracer.Stop()
	fmt.Printf("trace demo: matcher=%s ops=%d firings=%d cycles=%d\n\n", sys.MatcherName(), nOps, res.Firings, res.Cycles)
	fmt.Print(tracer.Profile().String())
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = tracer.WriteChromeTrace(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Printf("\nChrome trace written to %s (%d events recorded, %d dropped)\n", path, tracer.Len(), tracer.Dropped())
	return nil
}

func main() {
	scale := flag.Float64("scale", 1.0, "workload scale factor (0 < scale ≤ 1 for quicker runs)")
	exps := flag.String("exp", "", "comma-separated experiment IDs (default: all)")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	traceOut := flag.String("trace", "", "run the payroll trace demo and write a Chrome trace_event file to this path")
	traceMatcher := flag.String("trace-matcher", "core", fmt.Sprint("matcher for the trace demo, one of ", prodsys.Matchers()))
	traceOps := flag.Int("trace-ops", 400, "operation count for the trace demo")
	flag.Parse()

	if *traceOut != "" {
		if err := traceDemo(*traceOut, *traceMatcher, *traceOps); err != nil {
			fmt.Fprintln(os.Stderr, "psbench:", err)
			os.Exit(1)
		}
		return
	}

	reg := registry(*scale)
	if *list {
		ids := make([]string, 0, len(reg))
		for id := range reg {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		fmt.Println(strings.Join(ids, "\n"))
		return
	}
	selected := order
	if *exps != "" {
		selected = nil
		for _, id := range strings.Split(*exps, ",") {
			id = strings.TrimSpace(strings.ToLower(id))
			if _, ok := reg[id]; !ok {
				fmt.Fprintf(os.Stderr, "psbench: unknown experiment %q (try -list)\n", id)
				os.Exit(1)
			}
			selected = append(selected, id)
		}
	}
	for i, id := range selected {
		if i > 0 {
			fmt.Println()
		}
		fmt.Print(reg[id]().String())
	}
}
