package main

// serve-mixed: a psserve subprocess (WAL on, group sync, no checkpoints)
// driven over HTTP by closed-loop keep-alive clients in this process, then
// SIGKILLed and restarted on the same log for the recovery time and the
// acknowledgement oracle. Counters are read from the node that served the
// load, before it is killed.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// serveClients closed-loop clients drive psserve: four per core of the
// 2-core reference box, so the cores stay busy. With two clients the cores
// idle between requests and the wake-up latency of a shared host set the
// numbers (±15 % from run to run); with eight the spread is that of the
// embedded workloads, and WAL group commit has commits to group.
const serveClients = 8

// node is one running psserve.
type node struct {
	cmd    *exec.Cmd
	exited chan error // receives cmd.Wait's result once
	base   string
	http   *http.Client
}

var servingLine = regexp.MustCompile(`serving on (http://[0-9.:]+)`)

// addrWriter watches psserve's stdout for the line naming its address.
type addrWriter struct {
	buf  bytes.Buffer
	addr chan string // buffered: Write never blocks
	done bool
}

func (w *addrWriter) Write(p []byte) (int, error) {
	if !w.done {
		w.buf.Write(p)
		if m := servingLine.FindSubmatch(w.buf.Bytes()); m != nil {
			w.done = true
			w.addr <- string(m[1])
		}
	}
	return len(p), nil
}

const nodeStartTimeout = 60 * time.Second

// startNode starts psserve on a free port over the given log and returns
// once /readyz answers 200, polled every millisecond.
func startNode(bin, program, wal string) (*node, error) {
	aw := &addrWriter{addr: make(chan string, 1)}
	var stderr bytes.Buffer
	cmd := exec.Command(bin, "-program", program, "-wal", wal, "-addr", "127.0.0.1:0")
	cmd.Stdout = aw
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	n := &node{cmd: cmd, exited: make(chan error, 1), http: &http.Client{Transport: &http.Transport{}}}
	go func() { n.exited <- cmd.Wait() }()
	select {
	case n.base = <-aw.addr:
	case err := <-n.exited:
		return nil, fmt.Errorf("psserve exited before serving: %v: %s", err, stderr.String())
	case <-time.After(nodeStartTimeout):
		n.kill()
		return nil, fmt.Errorf("psserve did not start serving within %s", nodeStartTimeout)
	}
	deadline := time.Now().Add(nodeStartTimeout)
	for {
		status, _, err := n.get(n.http, "/readyz")
		if err == nil && status == http.StatusOK {
			return n, nil
		}
		if time.Now().After(deadline) {
			n.kill()
			return nil, fmt.Errorf("psserve not ready within %s (status %d, %v)", nodeStartTimeout, status, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// kill sends SIGKILL — no drain, no checkpoint — and waits for the exit.
func (n *node) kill() {
	n.cmd.Process.Kill()
	<-n.exited
	n.http.CloseIdleConnections()
}

func (n *node) do(c *http.Client, req *http.Request) (int, []byte, error) {
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

func (n *node) get(c *http.Client, path string) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodGet, n.base+path, nil)
	if err != nil {
		return 0, nil, err
	}
	return n.do(c, req)
}

func (n *node) post(c *http.Client, clientID, path, body string) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, n.base+path, strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Client-ID", clientID)
	return n.do(c, req)
}

// fetch decodes the JSON reply of a control request (GET, or POST when body
// is not empty) into v; any status but 200 is an error.
func (n *node) fetch(path, body string, v any) error {
	status, reply, err := n.get(n.http, path)
	if body != "" {
		status, reply, err = n.post(n.http, "bench-control", path, body)
	}
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("HTTP %d", status)
	}
	if err == nil {
		err = json.Unmarshal(reply, v)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// counters reads /v1/metrics of this node and returns the raw counters.
func (n *node) counters() (map[string]int64, error) {
	var snap struct{ Counters map[string]int64 }
	err := n.fetch("/v1/metrics", "", &snap)
	return snap.Counters, err
}

// client is one closed-loop caller: its stream, its acked tuple ids and what
// it measured.
type client struct {
	id   string
	g    *serveGen
	t    target // ids and row counts only; ops go over HTTP
	http *http.Client

	lat    []int64
	byKind [3][]int64 // assert, retract, query
}

const (
	kindAssert = iota
	kindRetract
	kindQuery
)

func kindOf(o op) int {
	switch {
	case o.kind == opQuery:
		return kindQuery
	case len(o.retracts) > 0:
		return kindRetract
	default:
		return kindAssert
	}
}

// request sends one op and checks the reply: status 200, ids minted, every
// row inside the window and no row of this client's own live items missing.
func (c *client) request(n *node, o op) (time.Duration, error) {
	path, body := opRequest(o, c.t.ids)
	ownRows := 0
	if o.kind == opQuery {
		ownRows = c.g.ownInWindow(o.lo, o.hi)
	}
	rowsBefore := c.t.rows
	t0 := time.Now()
	status, resp, err := n.post(c.http, c.id, path, body)
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	if err := c.t.opResponse(o, status, resp); err != nil {
		return d, err
	}
	if got := c.t.rows - rowsBefore; got < ownRows {
		return d, fmt.Errorf("retrieve [%d,%d) returned %d rows, this client alone has %d live", o.lo, o.hi, got, ownRows)
	}
	return d, nil
}

// limit ends a phase: after d when d > 0, else once n ops are done.
type limit struct {
	d time.Duration
	n int
}

// phase runs every client until the limit, recording latencies when record
// is set. It returns the number of ops completed inside the limit, when the
// last of them did, and psserve's peak RSS when the clients had completed
// their shares of rssOps (0 if the phase ended sooner).
func phase(nd *node, clients []*client, lim limit, rssOps int, record bool, out *outcome) (total int, elapsed time.Duration, rssMB float64) {
	var wg sync.WaitGroup
	var mu sync.Mutex
	start := time.Now()
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			ops, last := 0, time.Duration(0)
			for lim.d > 0 || ops < lim.n/len(clients) {
				o := c.g.next()
				lat, err := c.request(nd, o)
				end := time.Since(start)
				mu.Lock()
				out.did(err)
				mu.Unlock()
				if lim.d > 0 && end > lim.d {
					break
				}
				ops, last = ops+1, end
				if record && ops == rssOps/len(clients) {
					rss, err := peakRSSMB(nd.cmd.Process.Pid)
					mu.Lock()
					out.did(err)
					rssMB = max(rssMB, rss)
					mu.Unlock()
				}
				if record && err == nil {
					c.lat = append(c.lat, int64(lat))
					k := kindOf(o)
					c.byKind[k] = append(c.byKind[k], int64(lat))
				}
			}
			mu.Lock()
			total += ops
			elapsed = max(elapsed, last)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return total, elapsed, rssMB
}

// serveSetup writes the program, starts a node on a fresh log in dir and
// preloads every client's items over HTTP; it is what setup_s times.
func serveSetup(cfg config, dir string) (*node, []*client, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	program := filepath.Join(dir, "serve.ops")
	if err := os.WriteFile(program, []byte(programSource("serve")), 0o644); err != nil {
		return nil, nil, err
	}
	nd, err := startNode(cfg.psserve, program, filepath.Join(dir, "wm.wal"))
	if err != nil {
		return nil, nil, err
	}
	var clients []*client
	for i := 0; i < serveClients; i++ {
		c := &client{
			id:   fmt.Sprintf("bench-%d", i),
			g:    newServeGen(cfg.seed, cfg.scale, i, serveClients),
			http: &http.Client{Transport: &http.Transport{}},
		}
		for _, o := range c.g.preload() {
			if _, err := c.request(nd, o); err != nil {
				nd.kill()
				return nil, nil, fmt.Errorf("preload: %w", err)
			}
		}
		clients = append(clients, c)
	}
	return nd, clients, nil
}

// serveRun is what one pass against psserve measured.
type serveRun struct {
	setups    []float64
	ops       int
	elapsed   time.Duration // start of the measured phase → its last counted reply
	lat       []int64
	byKind    [3][]int64
	delta     map[string]int64 // counters of the serving node over the measured phase
	rssMB     float64
	recoveryS float64
	replayUs  float64 // WAL replay time per recovered unit, from the restarted node
}

// servePass runs serve-mixed against a psserve subprocess: set-up, warm-up,
// the measured phase (cfg.seconds long, or n ops when n > 0), SIGKILL,
// restart, oracle, audit; then the remaining set-ups for the median.
func servePass(cfg config, n, rssOps int, out *outcome) (*serveRun, error) {
	if cfg.psserve == "" {
		bin, err := buildPsserve(cfg.workDir)
		if err != nil {
			return nil, err
		}
		cfg.psserve = bin
	}
	run := &serveRun{}
	dir := filepath.Join(cfg.workDir, "serve-0")
	t0 := time.Now()
	nd, clients, err := serveSetup(cfg, dir)
	if err != nil {
		return nil, err
	}
	firstSetup := time.Since(t0).Seconds()

	warm, measured := limit{d: time.Duration(float64(cfg.seconds) * warmupShare)}, limit{d: cfg.seconds}
	if n > 0 {
		warm, measured = limit{n: max(n/20, len(clients))}, limit{n: n}
	}
	phase(nd, clients, warm, 0, false, out)
	before, err := nd.counters()
	if err != nil {
		nd.kill()
		return nil, err
	}
	run.ops, run.elapsed, run.rssMB = phase(nd, clients, measured, rssOps, true, out)
	after, err := nd.counters()
	if err != nil {
		nd.kill()
		return nil, err
	}
	run.delta = delta(after, before)
	if run.rssMB == 0 { // the phase ended before rssOps
		if run.rssMB, err = peakRSSMB(nd.cmd.Process.Pid); err != nil {
			nd.kill()
			return nil, err
		}
	}
	for _, c := range clients {
		run.lat = append(run.lat, c.lat...)
		for k := range c.byKind {
			run.byKind[k] = append(run.byKind[k], c.byKind[k]...)
		}
		c.http.CloseIdleConnections()
	}
	slices.Sort(run.lat)
	for k := range run.byKind {
		slices.Sort(run.byKind[k])
	}

	// Crash and recover on the same log.
	killed := time.Now()
	nd.kill()
	nd, err = startNode(cfg.psserve, filepath.Join(dir, "serve.ops"), filepath.Join(dir, "wm.wal"))
	if err != nil {
		return nil, fmt.Errorf("restart after SIGKILL: %w", err)
	}
	run.recoveryS = time.Since(killed).Seconds()
	oracle(nd, clients, out)
	if rec, err := nd.counters(); err == nil && rec["recovery_txns"] > 0 {
		run.replayUs = float64(rec["recovery_ns"]) / 1e3 / float64(rec["recovery_txns"])
	}
	nd.kill()

	run.setups, err = repeatSetups(firstSetup, func(i int) error {
		ni, ci, err := serveSetup(cfg, filepath.Join(cfg.workDir, fmt.Sprintf("serve-%d", i)))
		if err != nil {
			return err
		}
		for _, c := range ci {
			c.http.CloseIdleConnections()
		}
		ni.kill()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return run, nil
}

// oracle checks the restarted node: working memory holds exactly the items
// whose assert was acknowledged and whose retract was not, no rule fired,
// and the online audit is clean. Each is one attempted check of out.
func oracle(nd *node, clients []*client, out *outcome) {
	want := map[uint64]bool{}
	for _, c := range clients {
		for _, f := range c.g.live.live() {
			want[c.t.ids[f.seq]] = true
		}
	}
	var items struct {
		Tuples []string `json:"tuples"`
	}
	err := nd.fetch("/v1/wm?class=Item", "", &items)
	if err == nil {
		lost, extra := len(want), 0
		for _, line := range items.Tuples {
			idText, _, _ := strings.Cut(line, ":")
			if id, err := strconv.ParseUint(idText, 10, 64); err == nil && want[id] {
				lost--
			} else {
				extra++
			}
		}
		if lost != 0 || extra != 0 {
			err = fmt.Errorf("%d acked items lost, %d unexpected items present after recovery", lost, extra)
		}
	}
	out.did(err)

	var hits struct {
		Count int `json:"count"`
	}
	err = nd.fetch("/v1/wm?class=Hit", "", &hits)
	if err == nil && hits.Count != 0 {
		err = fmt.Errorf("%d Hit tuples: the quiescent rule fired", hits.Count)
	}
	out.did(err)

	var audit struct {
		Clean       bool     `json:"clean"`
		Divergences []string `json:"divergences"`
	}
	err = nd.fetch("/v1/audit", "{}", &audit)
	if err == nil && !audit.Clean {
		err = fmt.Errorf("/v1/audit after recovery: %v", audit.Divergences)
	}
	out.did(err)
}

// runServe is the untraced end-to-end run of serve-mixed.
func runServe(cfg config) (*outcome, error) {
	out := newOutcome()
	w, _ := findWorkload("serve-mixed")
	run, err := servePass(cfg, 0, w.rssOps, out)
	if err != nil {
		return nil, err
	}
	out.endToEnd(run.setups, run.ops, wmChanges(run.delta), run.elapsed, run.lat, run.rssMB)
	out.note("recovery_s", run.recoveryS)
	out.note("clients", float64(serveClients))
	out.note("commits_per_fsync", ratio(run.delta["wal_appends"], run.delta["wal_syncs"]))
	return out, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
