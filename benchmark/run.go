package main

// The embedded runner: a loaded prodsys.System driven through its public
// API by one goroutine, with the seq → tuple-id bookkeeping a generated
// stream needs. The untraced end-to-end run of the three embedded workloads
// and every in-process peel of the traced pass go through target.apply.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"prodsys"
)

// target is one system under test.
type target struct {
	sys *prodsys.System
	ids []uint64 // fact seq → tuple id minted at commit

	handler    http.Handler // non-nil: ops enter through ServeHTTP (peel.handler)
	concurrent bool         // opWave runs RunConcurrent instead of Run
	norules    bool         // no productions loaded: opWave has nothing to run

	applyStats
}

// applyStats is what apply has seen, for the per-layer metrics.
type applyStats struct {
	firings int
	runNs   int64 // opWave: time inside Run
	rows    int   // opQuery: rows returned
}

func loadTarget(src string, opts prodsys.Options) (*target, error) {
	if opts.Out == nil {
		opts.Out = io.Discard
	}
	sys, err := prodsys.Load(src, opts)
	if err != nil {
		return nil, err
	}
	return &target{sys: sys}, nil
}

// setup loads the program and commits the generator's preload.
func setup(src string, g generator, opts prodsys.Options) (*target, error) {
	t, err := loadTarget(src, opts)
	if err != nil {
		return nil, err
	}
	for _, o := range g.preload() {
		if err := t.apply(o, nil, 0); err != nil {
			t.sys.Close()
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	return t, nil
}

func (t *target) noteIDs(asserts []fact, ids []uint64) error {
	if len(ids) != len(asserts) {
		return fmt.Errorf("commit returned %d ids for %d asserts", len(ids), len(asserts))
	}
	for i, f := range asserts {
		for f.seq >= len(t.ids) {
			t.ids = append(t.ids, make([]uint64, max(1024, len(t.ids)))...)
		}
		t.ids[f.seq] = ids[i]
	}
	return nil
}

// apply executes one op and checks its direct result. tr may be nil; with a
// tracer the calls into the system are recorded as children of span parent.
func (t *target) apply(o op, tr *tracer, parent int) error {
	if t.handler != nil {
		return t.applyHTTP(o, tr, parent)
	}
	if o.kind == opQuery {
		sp := tr.begin("Quel", "quel", parent)
		res, err := t.sys.Quel(quelRange(o.lo, o.hi))
		tr.end(sp)
		if err != nil {
			return err
		}
		t.rows += len(res.Rows)
		return checkRows(res.Rows, o)
	}
	b := t.sys.Batch()
	for _, f := range o.retracts {
		b.Retract(f.class, t.ids[f.seq])
	}
	for _, f := range o.asserts {
		b.Assert(f.class, f.vals...)
	}
	sp := tr.begin("Batch.Commit", "engine", parent)
	ids, err := b.CommitContext(context.Background())
	tr.end(sp)
	if err != nil {
		return err
	}
	if err := t.noteIDs(o.asserts, ids[len(o.retracts):]); err != nil { // aligned with the ops, zero at retracts
		return err
	}
	if o.kind != opWave || t.norules {
		return nil
	}
	t1 := time.Now()
	var res prodsys.Result
	if t.concurrent {
		sp = tr.begin("RunConcurrent", "engine", parent)
		res, err = t.sys.RunConcurrent()
	} else {
		sp = tr.begin("Run", "engine", parent)
		res, err = t.sys.Run()
	}
	tr.end(sp)
	t.runNs += int64(time.Since(t1))
	t.firings += res.Firings
	if err != nil {
		return err
	}
	if want := jobshopFirings * len(o.asserts); res.Firings != want {
		return fmt.Errorf("wave fired %d rules, want %d", res.Firings, want)
	}
	return nil
}

// checkRows verifies a retrieve: two columns, every qty inside the window.
func checkRows(rows [][]string, o op) error {
	for _, r := range rows {
		if len(r) != 2 {
			return fmt.Errorf("retrieve row has %d columns, want 2", len(r))
		}
		q, err := strconv.Atoi(r[1])
		if err != nil || q < o.lo || q >= o.hi {
			return fmt.Errorf("retrieve row qty %q outside [%d,%d)", r[1], o.lo, o.hi)
		}
	}
	return nil
}

// batchBody renders an op as a /v1/batch request body.
func batchBody(o op, ids []uint64) string {
	var b strings.Builder
	b.WriteString(`{"ops":[`)
	n := 0
	for _, f := range o.retracts {
		if n > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"op":"retract","class":%q,"id":%d}`, f.class, ids[f.seq])
		n++
	}
	for _, f := range o.asserts {
		if n > 0 {
			b.WriteByte(',')
		}
		vals, _ := json.Marshal(f.vals) // ints and strings cannot fail
		fmt.Fprintf(&b, `{"op":"assert","class":%q,"values":%s}`, f.class, vals)
		n++
	}
	b.WriteString("]}")
	return b.String()
}

func quelBody(o op) string {
	body, _ := json.Marshal(map[string]string{"stmt": quelRange(o.lo, o.hi)})
	return string(body)
}

// opRequest is the HTTP form of an op: path and JSON body.
func opRequest(o op, ids []uint64) (path, body string) {
	if o.kind == opQuery {
		return "/v1/quel", quelBody(o)
	}
	return "/v1/batch", batchBody(o, ids)
}

// opResponse checks an HTTP reply to an op and records the minted ids.
func (t *target) opResponse(o op, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("HTTP %d: %s", status, strings.TrimSpace(string(body)))
	}
	if o.kind == opQuery {
		var resp struct {
			Rows [][]string `json:"rows"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		t.rows += len(resp.Rows)
		return checkRows(resp.Rows, o)
	}
	var resp struct {
		IDs []uint64 `json:"ids"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	if len(resp.IDs) < len(o.retracts) {
		return fmt.Errorf("batch reply has %d ids for %d ops", len(resp.IDs), len(o.retracts)+len(o.asserts))
	}
	return t.noteIDs(o.asserts, resp.IDs[len(o.retracts):]) // aligned with the ops, zero at retracts
}

// applyHTTP sends the op into the in-process handler with no network.
func (t *target) applyHTTP(o op, tr *tracer, parent int) error {
	path, body := opRequest(o, t.ids)
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("X-Client-ID", "peel")
	rec := httptest.NewRecorder()
	sp := tr.begin("Handler.ServeHTTP", "server", parent)
	t.handler.ServeHTTP(rec, req)
	tr.end(sp)
	return t.opResponse(o, rec.Code, rec.Body.Bytes())
}

// counters reads the system's work counters by name.
func (t *target) counters() map[string]int64 { return t.sys.Metrics().Counters }

func delta(after, before map[string]int64) map[string]int64 {
	d := make(map[string]int64, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// wmChanges is the number of tuples a counter delta says were asserted or
// retracted, whoever did it.
func wmChanges(d map[string]int64) int64 { return d["tuples_inserted"] + d["tuples_deleted"] }

// stateHash is the SHA-256 of the final working memory and the sorted
// conflict-set keys: identical for every matcher and backend fed the same
// ops.
func (t *target) stateHash() string {
	h := sha256.New()
	io.WriteString(h, t.sys.WM())
	keys := t.sys.ConflictKeys()
	slices.Sort(keys)
	for _, k := range keys {
		io.WriteString(h, "\n"+k)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// verify runs the end-of-run output checks of an embedded target: a clean
// full audit, the working-memory size the stream implies and the
// conflict-set size the generator's model of the rules predicts. Each is one
// attempted check of out.
func (t *target) verify(g generator, out *outcome) {
	rep, err := t.sys.Audit(prodsys.AuditOptions{})
	if err == nil && !rep.Clean() {
		err = fmt.Errorf("%d divergences, first: %s", len(rep.Divergences), rep.Divergences[0])
	}
	if err != nil {
		err = fmt.Errorf("audit: %w", err)
	}
	out.did(err)

	live := 0
	for _, c := range t.sys.Classes() {
		live += len(t.sys.WMClass(c))
	}
	err = nil
	if want := g.liveFacts(!t.norules); live != want {
		err = fmt.Errorf("working memory holds %d tuples, want %d", live, want)
	}
	out.did(err)

	want := 0
	if !t.norules {
		want = g.expectConflict()
	}
	err = nil
	if got := len(t.sys.ConflictKeys()); got != want {
		err = fmt.Errorf("conflict set holds %d instantiations, want %d", got, want)
	}
	out.did(err)
}

// ---- untraced end-to-end run of an embedded workload ----

// A run sets up at least setupMinRepeats times and reports the median; a
// set-up of a few milliseconds is repeated more often, until the repeats
// have taken setupBudget, so that its median is as steady as a long one's.
const (
	setupMinRepeats = 5
	setupMaxRepeats = 25
	setupBudget     = 1500 * time.Millisecond
)

// repeatSetups times further set-ups after the first one, which fed the run.
func repeatSetups(first float64, again func(i int) error) ([]float64, error) {
	setups := []float64{first}
	total := first
	for i := 1; i < setupMinRepeats || (i < setupMaxRepeats && total < setupBudget.Seconds()); i++ {
		t0 := time.Now()
		if err := again(i); err != nil {
			return nil, err
		}
		d := time.Since(t0).Seconds()
		setups = append(setups, d)
		total += d
	}
	return setups, nil
}

// warmupShare of the measured duration runs first and is discarded.
const warmupShare = 0.05

func runEmbedded(w workload, cfg config) (*outcome, error) {
	out := newOutcome()
	src := programSource(w.program)

	t0 := time.Now()
	g := w.newGen(cfg.seed, cfg.scale)
	t, err := setup(src, g, prodsys.Options{})
	if err != nil {
		return nil, err
	}
	firstSetup := time.Since(t0).Seconds()

	// run applies ops for d and returns how many finished inside the window
	// and when the last of them did.
	var rss float64
	run := func(d time.Duration, lat *[]int64) (ops int, elapsed time.Duration) {
		start := time.Now()
		for {
			if lat != nil && ops == w.rssOps {
				var err error
				rss, err = peakRSSMB(os.Getpid())
				out.did(err)
			}
			o := g.next()
			t1 := time.Now()
			err := t.apply(o, nil, 0)
			end := time.Now()
			out.did(err)
			if end.Sub(start) > d {
				// The op that crosses the deadline is outside the window;
				// it still has to succeed.
				return ops, elapsed
			}
			ops, elapsed = ops+1, end.Sub(start)
			if lat != nil && err == nil {
				*lat = append(*lat, int64(end.Sub(t1)))
			}
		}
	}
	run(time.Duration(float64(cfg.seconds)*warmupShare), nil)

	lat := make([]int64, 0, 1<<16)
	before := t.counters()
	ops, elapsed := run(cfg.seconds, &lat)
	d := delta(t.counters(), before)
	if rss == 0 { // the window closed before rssOps
		if rss, err = peakRSSMB(os.Getpid()); err != nil {
			return nil, err
		}
	}

	t.verify(g, out)
	t.sys.Close()
	t = nil

	// The remaining set-ups run after the measurement so that they cannot
	// inflate the peak RSS attributed to the run.
	runtime.GC()
	setups, err := repeatSetups(firstSetup, func(int) error {
		ti, err := setup(src, w.newGen(cfg.seed, cfg.scale), prodsys.Options{})
		if err != nil {
			return err
		}
		return ti.sys.Close()
	})
	if err != nil {
		return nil, err
	}

	slices.Sort(lat)
	out.endToEnd(setups, ops, wmChanges(d), elapsed, lat, rss)
	out.note("firings", float64(d["rule_firings"]))
	return out, nil
}

// ---- small shared helpers ----

// percentile of an ascending slice by nearest rank; 0 when empty.
func percentile(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i])
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// peakRSSMB reads VmHWM, the peak resident set of a process, in MB.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM of %d: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/%d/status", pid)
}
