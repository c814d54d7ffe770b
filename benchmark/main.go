// Command benchmark is the repository's one ruler: four pinned workloads,
// the end-to-end metrics a user of the system sees, and per-layer numbers
// measured from outside through successively thinner peels. See README.md
// for the metric catalogue and BENCHMARK.json (repository root) for the
// contract the numbers are judged by.
//
// Usage, from the repository root:
//
//	go run ./benchmark                      every workload, untraced then traced
//	go run ./benchmark --workload chain-bulk --seed 3 --seconds 15 --trace 0
//
// With --workload the process is the one measured run of that workload; its
// last line of output is one JSON object {correct, attempted, failed,
// metrics}. Without it the command starts one such child per workload and
// trace mode and prints and stores what they report.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is what one measured run is told.
type config struct {
	seed    int64
	seconds time.Duration
	scale   float64
	workDir string // scratch for WAL files and the psserve binary; removed on exit
	outDir  string // where traces and stamped results are stored
	psserve string // path of the built cmd/psserve binary
}

// defaultOutDir is where a run from the repository root stores what it
// measured.
const defaultOutDir = "benchmark/out"

// metricDef names one metric and its unit. The two tables below are the
// catalogue; BENCHMARK.json lists the same names (smoke_test.go checks).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"wm_changes_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p99_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"rules.load_ms", "ms"},
	{"peel.handler_us_per_op", "us"},
	{"peel.commit_wal_us_per_op", "us"},
	{"peel.commit_us_per_op", "us"},
	{"peel.norules_us_per_op", "us"},
	{"relation.self_us_per_change", "us"},
	{"relation.tuples_scanned_per_change", "count"},
	{"relation.index_lookups_per_change", "count"},
	{"relation.index_range_probes_per_change", "count"},
	{"relation.batch_inserts", "count"},
	{"relation.intern_hits", "count"},
	{"relation.row.us_per_change", "us"},
	{"relation.columnar.us_per_change", "us"},
	{"match.self_us_per_change", "us"},
	{"match.self_share", "ratio"},
	{"match.candidate_checks_per_change", "count"},
	{"match.false_drops_per_change", "count"},
	{"match.pattern_searches_per_change", "count"},
	{"match.joins_computed_per_change", "count"},
	{"match.useful_ratio", "ratio"},
	{"match.patterns_stored", "count"},
	{"match.cond_tuples_stored", "count"},
	{"match.tokens_stored", "count"},
	{"match.rete.us_per_change", "us"},
	{"match.rete-shared.us_per_change", "us"},
	{"match.requery.us_per_change", "us"},
	{"match.core.us_per_change", "us"},
	{"match.core-parallel.us_per_change", "us"},
	{"match.marker.us_per_change", "us"},
	{"match.ptree.us_per_change", "us"},
	{"joiner.plans_built", "count"},
	{"joiner.plan_cache_hit_ratio", "ratio"},
	{"joiner.plan_invalidations", "count"},
	{"conflict.instantiations_per_change", "count"},
	{"conflict.retractions_per_change", "count"},
	{"conflict.size_final", "count"},
	{"engine.commit_us_per_batch", "us"},
	{"engine.fire_us_per_firing", "us"},
	{"engine.firings_per_s", "1/s"},
	{"engine.cycles", "count"},
	{"engine.txn_commits", "count"},
	{"engine.txn_aborts", "count"},
	{"engine.allocs_per_change", "count"},
	{"engine.bytes_per_change", "B"},
	{"engine.gc_pause_ms_total", "ms"},
	{"engine.gc_cpu_fraction", "ratio"},
	{"engine.concurrent_vs_serial_ratio", "ratio"},
	{"lock.waits_per_firing", "count"},
	{"lock.deadlocks", "count"},
	{"lock.txn_retries", "count"},
	{"wal.self_us_per_commit", "us"},
	{"wal.write_us_per_commit", "us"},
	{"wal.fsync_ms_p50", "ms"},
	{"wal.fsync_ms_p99", "ms"},
	{"wal.commits_per_fsync", "ratio"},
	{"wal.write_calls_per_commit", "count"},
	{"wal.bytes_per_change", "B"},
	{"wal.bytes_per_user_byte", "ratio"},
	{"wal.checkpoint_ms", "ms"},
	{"wal.replay_us_per_unit", "us"},
	{"wal.recovery_s", "s"},
	{"wal.server_share", "ratio"},
	{"server.self_us_per_req", "us"},
	{"server.http_stack_us_per_req", "us"},
	{"server.admitted", "count"},
	{"server.rejected", "count"},
	{"server.assert_p50_ms", "ms"},
	{"server.retract_p50_ms", "ms"},
	{"server.query_p50_ms", "ms"},
	{"server.query_p99_ms", "ms"},
	{"quel.retrieve_us_per_row", "us"},
	{"quel.rows_scanned_per_row_returned", "count"},
	{"audit.full_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
	{"host.calib_ns_per_iter", "ns"},
	{"host.num_cpu", "count"},
	{"host.gomaxprocs", "count"},
}

// metric is one reported value in the contract's shape.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a measured run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome accumulates what a measured run found.
type outcome struct {
	attempted, failed int
	values            map[string]float64
	notes             map[string]float64 // sample and op counts: printed and stored, not judged
	exact             map[string]int64   // work counters that repeat bit for bit
	stateHash         string
	errs              []string
}

func newOutcome() *outcome {
	return &outcome{values: map[string]float64{}, notes: map[string]float64{}, exact: map[string]int64{}}
}

// did counts one attempted operation or output check and its failure.
func (o *outcome) did(err error) {
	o.attempted++
	if err != nil {
		o.failed++
		if len(o.errs) < 10 {
			o.errs = append(o.errs, err.Error())
		}
	}
}

func (o *outcome) set(name string, v float64)  { o.values[name] = v }
func (o *outcome) note(name string, v float64) { o.notes[name] = v }

// endToEnd sets every end-to-end metric from what an untraced run measured:
// its set-up times, the ops and WM changes completed in elapsed, the sorted
// latencies of those ops and the peak RSS.
func (o *outcome) endToEnd(setups []float64, ops int, changes int64, elapsed time.Duration, lat []int64, rssMB float64) {
	secs := elapsed.Seconds()
	o.set("setup_s", median(setups))
	o.set("ops_per_s", float64(ops)/secs)
	o.set("wm_changes_per_s", float64(changes)/secs)
	o.set("op_p50_ms", percentile(lat, 0.50)/1e6)
	o.set("op_p99_ms", percentile(lat, 0.99)/1e6)
	o.set("peak_rss_mb", rssMB)
	o.note("timed_ops", float64(ops))
	o.note("latency_samples", float64(len(lat)))
	o.note("samples_beyond_p99", float64(len(lat)-int(0.99*float64(len(lat)))))
	o.note("setup_samples", float64(len(setups)))
}

// result shapes the outcome for the given catalogue; a catalogue metric the
// run did not set is an error.
func (o *outcome) result(defs []metricDef) (result, error) {
	r := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := o.values[d.name]
		if !ok {
			return r, fmt.Errorf("metric %s was not measured", d.name)
		}
		r.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return r, nil
}

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload in this process (default: all, one child each)")
		seed    = flag.Int64("seed", 1, "the only input to the workload generators")
		seconds = flag.Float64("seconds", 15, "length of the measured phase of an untraced run")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced peels")
		scale   = flag.Float64("scale", 1, "shrinks preloads and traced op counts (smoke tests)")
		psserve = flag.String("psserve", "", "path of a built cmd/psserve (default: build it)")
	)
	flag.Parse()
	if _, err := os.Stat("go.mod"); err != nil {
		fatal(errors.New("run from the repository root (no go.mod here)"))
	}
	if *name == "" {
		os.Exit(runAll(*seed, *seconds, *scale))
	}
	w, ok := findWorkload(*name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	workDir, err := makeWorkDir()
	if err != nil {
		fatal(err)
	}
	cfg := config{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), scale: *scale, workDir: workDir, outDir: defaultOutDir, psserve: *psserve}
	code := runOne(w, cfg, *trace == 1)
	os.RemoveAll(workDir)
	os.Exit(code)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// makeWorkDir creates this process's scratch directory under .bench_build
// in the checkout (the benchmark writes nowhere else but benchmark/out).
func makeWorkDir() (string, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return "", err
	}
	return filepath.Abs(dir)
}

// runOne is one measured run: it prints every metric by name with its unit,
// stores the stamped result under benchmark/out, prints the contract's JSON
// line last and returns the exit code.
func runOne(w workload, cfg config, traced bool) int {
	var (
		out  *outcome
		err  error
		defs = endToEnd
	)
	switch {
	case traced:
		defs = perLayer
		out, err = runTraced(w, cfg)
	case w.name == "serve-mixed":
		out, err = runServe(cfg)
	default:
		out, err = runEmbedded(w, cfg)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	res, err := out.result(defs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	st := newStamp(w, cfg, traced)
	printRun(st, defs, out)
	if err := storeRun(cfg.outDir, st, res, out); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	line, _ := json.Marshal(res) // a map of floats and strings cannot fail
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// stamp is what every stored result carries about where it came from.
type stamp struct {
	Workload   string  `json:"workload"`
	Trace      int     `json:"trace"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Scale      float64 `json:"scale"`
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Kernel     string  `json:"kernel"`
	Clients    int     `json:"clients"`
	TracedOps  int     `json:"traced_ops"`
	SweepOps   int     `json:"sweep_ops"`
	RecordedAt string  `json:"recorded_at"`
}

func newStamp(w workload, cfg config, traced bool) stamp {
	st := stamp{
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds.Seconds(), Scale: cfg.scale,
		Commit:    commandOutput("git", "rev-parse", "HEAD"),
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel:  fileLine("/proc/sys/kernel/osrelease"),
		Clients: serveClients, TracedOps: scaled(w.tracedOps, cfg.scale, minTracedOps), SweepOps: scaled(w.sweepOps, cfg.scale, 0),
		RecordedAt: time.Now().UTC().Format(time.RFC3339),
	}
	if traced {
		st.Trace = 1
	}
	return st
}

func commandOutput(name string, args ...string) string {
	out, err := exec.Command(name, args...).Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func fileLine(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(data))
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func printRun(st stamp, defs []metricDef, out *outcome) {
	fmt.Printf("== %s  trace=%d seed=%d seconds=%g scale=%g  %s %s cpus=%d gomaxprocs=%d kernel=%s commit=%s\n",
		st.Workload, st.Trace, st.Seed, st.Seconds, st.Scale,
		st.GoVersion, runtime.GOARCH, st.NumCPU, st.GOMAXPROCS, st.Kernel, st.Commit)
	for _, d := range defs {
		fmt.Printf("%-42s %16.6g %s\n", d.name, out.values[d.name], d.unit)
	}
	for _, k := range sortedKeys(out.notes) {
		fmt.Printf("note  %-36s %16.6g\n", k, out.notes[k])
	}
	for _, k := range sortedKeys(out.exact) {
		fmt.Printf("exact %-36s %16d\n", k, out.exact[k])
	}
	if out.stateHash != "" {
		fmt.Printf("exact state_sha256 %s\n", out.stateHash)
	}
	ratio := 0.0
	if out.attempted > 0 {
		ratio = float64(out.failed) / float64(out.attempted)
	}
	fmt.Printf("%-42s %16.6g ratio (%d of %d)\n", "failed_ops_ratio", ratio, out.failed, out.attempted)
	for _, e := range out.errs {
		fmt.Println("FAILED:", e)
	}
}

// storeRun writes the stamped result to <dir>/<workload>-trace<n>.json.
func storeRun(dir string, st stamp, res result, out *outcome) error {
	doc := map[string]any{
		"stamp": st, "result": res, "notes": out.notes, "exact": out.exact,
		"state_sha256": out.stateHash, "failures": out.errs,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-trace%d.json", st.Workload, st.Trace)), data, 0o644)
}

// runAll starts one child process per workload and trace mode, so that no
// run inherits another's heap, and relays what each prints. The exit code is
// non-zero if any child failed an output check.
func runAll(seed int64, seconds, scale float64) int {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	workDir, err := makeWorkDir()
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(workDir)
	bin, err := buildPsserve(workDir)
	if err != nil {
		fatal(err)
	}
	code := 0
	for _, w := range workloads {
		for mode := 0; mode <= 1; mode++ {
			cmd := exec.Command(self,
				"--workload", w.name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds),
				"--trace", fmt.Sprint(mode), "--scale", fmt.Sprint(scale), "--psserve", bin)
			var stdout bytes.Buffer
			cmd.Stdout = &stdout
			cmd.Stderr = os.Stderr
			err := cmd.Run()
			// Everything but the machine-readable last line is for people.
			sc := bufio.NewScanner(&stdout)
			sc.Buffer(nil, 1<<20)
			for sc.Scan() {
				if line := sc.Text(); !strings.HasPrefix(line, "{") {
					fmt.Println(line)
				}
			}
			if err != nil {
				fmt.Printf("FAILED: %s trace=%d: %v\n", w.name, mode, err)
				code = 1
			}
		}
	}
	fmt.Println("results stored under", defaultOutDir)
	return code
}

// buildPsserve builds cmd/psserve into dir and returns the binary's path.
func buildPsserve(dir string) (string, error) {
	bin := filepath.Join(dir, "psserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/psserve")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/psserve: %v\n%s", err, out)
	}
	return bin, nil
}
