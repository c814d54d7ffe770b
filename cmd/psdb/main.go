// Command psdb loads an OPS5-subset production program and runs it
// against the DBMS-backed matchers.
//
// Usage:
//
//	psdb [flags] program.ops
//
// Flags select the matching algorithm (-matcher), the conflict-resolution
// strategy (-strategy), the tuple storage backend (-storage,
// -storage-by-class), serial or concurrent execution (-concurrent,
// -workers), and what to print afterwards (-wm, -conflict, -stats).
// Tracing flags record the run's execution events: -trace exports them
// to a file (-trace-format jsonl or chrome), -profile prints the
// per-rule profile table.
//
// Durability flags attach a write-ahead log: -wal names the log file
// (reopening it recovers the previous run's committed state before
// anything else happens), -wal-sync picks the sync policy,
// -checkpoint-every compacts the log periodically, and -run=false
// recovers and prints without firing any rules.
//
// Robustness flags: -audit runs a full integrity audit after the run
// and exits non-zero on divergence (-audit-repair also rebuilds the
// divergent state), -corrupt injects seeded corruption into the
// matcher's derived state beforehand (for demos and drills), and
// -txn-timeout arms the per-transaction watchdog for concurrent runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"prodsys"
)

func main() {
	matcher := flag.String("matcher", "core", "matching algorithm: rete|requery|core|core-parallel|marker|ptree")
	strategy := flag.String("strategy", "fifo", "conflict resolution: fifo|lex|priority|random")
	storage := flag.String("storage", "", "tuple storage backend: row|columnar (empty = process default)")
	storageByClass := flag.String("storage-by-class", "", "per-class backend overrides, e.g. Emp=columnar,Dept=row")
	seed := flag.Int64("seed", 1, "seed for the random strategy")
	concurrent := flag.Bool("concurrent", false, "fire applicable rules concurrently as transactions (§5)")
	workers := flag.Int("workers", 4, "concurrent executor pool size")
	max := flag.Int("max", 10000, "firing cap")
	setAtATime := flag.Bool("set-at-a-time", false, "fire all eligible instantiations of the selected rule per cycle (§5.1)")
	showWM := flag.Bool("wm", true, "print final working memory")
	showCS := flag.Bool("conflict", false, "print the final conflict set")
	showStats := flag.Bool("stats", false, "print operation counters")
	explain := flag.Bool("explain", false, "print each rule's join plans: access path, join position, estimated vs actual cardinality per condition element")
	plannerMode := flag.String("planner", "cost", "join planner: cost|fixed")
	loadWM := flag.String("load", "", "restore working memory from a dump file before running")
	saveWM := flag.String("save", "", "dump working memory to a file after running")
	traceOut := flag.String("trace", "", "record execution events and export them to this file")
	traceFormat := flag.String("trace-format", "jsonl", "trace export format: jsonl|chrome")
	profile := flag.Bool("profile", false, "record execution events and print the per-rule profile")
	walPath := flag.String("wal", "", "write-ahead log file; reopening recovers committed state")
	walSync := flag.String("wal-sync", "always", "WAL sync policy: always|interval|never")
	walSyncEvery := flag.Duration("wal-sync-interval", 100*time.Millisecond, "sync period for -wal-sync=interval")
	ckptEvery := flag.Int("checkpoint-every", 0, "compact the WAL after this many committed units (0 = never)")
	doRun := flag.Bool("run", true, "fire rules; -run=false only loads (and recovers) then prints")
	doAudit := flag.Bool("audit", false, "run a full integrity audit after the run; exit 1 on divergence")
	auditRepair := flag.Bool("audit-repair", false, "with -audit: rebuild divergent derived state from WM")
	corruptSeed := flag.Int64("corrupt", 0, "inject seeded corruption into the matcher's derived state before the audit (0 = none)")
	txnTimeout := flag.Duration("txn-timeout", 0, "per-transaction watchdog: abort and retry firings whose lock waits exceed this (0 = no watchdog)")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: psdb [flags] program.ops")
		flag.PrintDefaults()
		os.Exit(2)
	}
	perClass := map[string]prodsys.Storage{}
	if *storageByClass != "" {
		for _, pair := range strings.Split(*storageByClass, ",") {
			class, backend, ok := strings.Cut(strings.TrimSpace(pair), "=")
			if !ok || class == "" {
				fmt.Fprintf(os.Stderr, "psdb: malformed -storage-by-class entry %q (want class=backend)\n", pair)
				os.Exit(2)
			}
			perClass[class] = prodsys.Storage(backend)
		}
	}
	sys, err := prodsys.LoadFile(flag.Arg(0), prodsys.Options{
		Matcher:            prodsys.Matcher(*matcher),
		Strategy:           prodsys.Strategy(*strategy),
		Storage:            prodsys.Storage(*storage),
		StorageByClass:     perClass,
		Planner:            prodsys.Planner(*plannerMode),
		Seed:               *seed,
		Workers:            *workers,
		MaxFirings:         *max,
		SetAtATime:         *setAtATime,
		Out:                os.Stdout,
		WALPath:            *walPath,
		WALSync:            prodsys.WALSyncMode(*walSync),
		WALSyncEvery:       *walSyncEvery,
		WALCheckpointEvery: *ckptEvery,
		TxnTimeout:         *txnTimeout,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "psdb:", err)
		os.Exit(1)
	}
	defer sys.Close()
	if info := sys.Recovery(); info.Recovered {
		fmt.Printf("; recovered %d checkpoint tuples + %d logged txns (%d ops) in %v",
			info.Tuples, info.Txns, info.Ops, info.Elapsed.Round(time.Microsecond))
		if info.TornTail {
			fmt.Printf(", torn tail truncated")
		}
		fmt.Println()
	}

	if *loadWM != "" {
		if err := sys.RestoreWMFile(*loadWM); err != nil {
			fmt.Fprintln(os.Stderr, "psdb:", err)
			os.Exit(1)
		}
	}

	var tracer *prodsys.Tracer
	if *traceOut != "" || *profile {
		if *traceFormat != "jsonl" && *traceFormat != "chrome" {
			fmt.Fprintf(os.Stderr, "psdb: unknown trace format %q (want jsonl or chrome)\n", *traceFormat)
			os.Exit(2)
		}
		tracer = sys.Trace(prodsys.TraceOptions{})
	}

	if *doRun {
		var res prodsys.Result
		if *concurrent {
			res, err = sys.RunConcurrent()
		} else {
			res, err = sys.Run()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "psdb:", err)
			os.Exit(1)
		}
		fmt.Printf("; %d firings, %d cycles", res.Firings, res.Cycles)
		if *concurrent {
			fmt.Printf(", %d aborts", res.Aborts)
		}
		if res.Halted {
			fmt.Printf(", halted")
		}
		fmt.Println()
	}

	auditFailed := false
	if *corruptSeed != 0 {
		if desc := sys.InjectCorruption(*corruptSeed); desc != "" {
			fmt.Println("; injected corruption:", desc)
		} else {
			fmt.Println("; corruption injection found nothing to corrupt")
		}
	}
	if *doAudit {
		rep, err := sys.Audit(prodsys.AuditOptions{Repair: *auditRepair})
		if err != nil {
			fmt.Fprintln(os.Stderr, "psdb:", err)
			os.Exit(1)
		}
		fmt.Printf("; audit (%s): %d rules checked, %d divergences\n",
			rep.Matcher, rep.RulesChecked, len(rep.Divergences))
		for _, d := range rep.Divergences {
			fmt.Println(";   divergence:", d.String())
		}
		if !rep.Clean() {
			auditFailed = true
			if *auditRepair {
				fmt.Printf("; repaired %d divergences (matcher rebuilt: %v)\n", rep.Repaired, rep.Rebuilt)
				again, err := sys.Audit(prodsys.AuditOptions{})
				if err != nil {
					fmt.Fprintln(os.Stderr, "psdb:", err)
					os.Exit(1)
				}
				if again.Clean() {
					fmt.Println("; re-audit clean")
					auditFailed = false
				} else {
					fmt.Printf("; re-audit still divergent: %d divergences\n", len(again.Divergences))
				}
			}
		}
	}

	if *showWM {
		fmt.Println("; final working memory:")
		fmt.Println(sys.WM())
	}
	if *showCS {
		fmt.Println("; conflict set:")
		for _, k := range sys.ConflictKeys() {
			fmt.Println(";  ", k)
		}
	}
	if *showStats {
		fmt.Println("; statistics:")
		fmt.Print(sys.Metrics().String())
	}
	if *explain {
		fmt.Println("; join plans:")
		for _, rule := range sys.RuleNames() {
			plans, err := sys.Plans(rule)
			if err != nil {
				fmt.Fprintln(os.Stderr, "psdb:", err)
				os.Exit(1)
			}
			for _, p := range plans {
				for _, line := range strings.Split(strings.TrimRight(p.String(), "\n"), "\n") {
					fmt.Println(";", line)
				}
			}
		}
	}
	if tracer != nil {
		tracer.Stop()
		if *profile {
			fmt.Println("; profile:")
			fmt.Print(tracer.Profile().String())
		}
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, "psdb:", err)
				os.Exit(1)
			}
			if *traceFormat == "chrome" {
				err = tracer.WriteChromeTrace(f)
			} else {
				err = tracer.WriteJSONL(f)
			}
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "psdb:", err)
				os.Exit(1)
			}
		}
	}
	if *saveWM != "" {
		if err := sys.SaveWMFile(*saveWM); err != nil {
			fmt.Fprintln(os.Stderr, "psdb:", err)
			os.Exit(1)
		}
	}
	if auditFailed {
		sys.Close()
		os.Exit(1)
	}
}
