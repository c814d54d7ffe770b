// Command psload is the load and chaos harness for psserve: many
// concurrent clients drive a mixed assert/retract/query workload over
// HTTP, measuring throughput, p50/p99 latency, and shed (429) rates.
//
// Usage:
//
//	psload -spawn -psserve bin/psserve -program testdata/server.ops -wal /tmp/wm.wal \
//	       -clients 8 -duration 10s [-chaos] [-out BENCH_8.json]
//
// With -spawn, psload launches and manages the server process itself;
// without it, point -addr at a running psserve. With -chaos, the
// harness SIGKILLs the server mid-load, restarts it, measures recovery
// time, and then checks the acknowledgement oracle: every assertion
// the server acknowledged before the kill (and not since retracted)
// must be present in the recovered working memory — acknowledged means
// durable, no exceptions — and a full integrity audit must come back
// clean. Results land in -out as JSON.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8372", "psserve address")
	clients := flag.Int("clients", 8, "concurrent load clients")
	duration := flag.Duration("duration", 5*time.Second, "total load duration")
	mix := flag.String("mix", "70,10,20", "assert,retract,query percentages")
	spawn := flag.Bool("spawn", false, "launch and manage the server process")
	psserve := flag.String("psserve", "psserve", "psserve binary (with -spawn)")
	program := flag.String("program", "testdata/server.ops", "program file (with -spawn)")
	walPath := flag.String("wal", "", "WAL file (with -spawn; required for -chaos)")
	maxInFlight := flag.Int("max-inflight", 32, "server max in-flight (with -spawn)")
	maxQueue := flag.Int("max-queue", 128, "server max queue (with -spawn)")
	chaos := flag.Bool("chaos", false, "SIGKILL the server mid-load, restart, verify recovery (needs -spawn and -wal)")
	failover := flag.Bool("chaos-failover", false, "run the replication failover drill: kill the primary, promote the replica, fence and rejoin the old primary (needs -spawn and -wal)")
	cycles := flag.Int("cycles", 5, "kill→promote→rejoin cycles (with -chaos-failover)")
	replicaAddr := flag.String("replica-addr", "127.0.0.1:8373", "replica address (with -chaos-failover)")
	seed := flag.Int64("seed", 1, "workload RNG seed")
	label := flag.String("label", "mixed", "workload label recorded in the report")
	out := flag.String("out", "", "append the JSON report to this file (array of runs)")
	flag.Parse()

	if *chaos && (!*spawn || *walPath == "") {
		fmt.Fprintln(os.Stderr, "psload: -chaos requires -spawn and -wal")
		os.Exit(2)
	}
	if *failover && (!*spawn || *walPath == "") {
		fmt.Fprintln(os.Stderr, "psload: -chaos-failover requires -spawn and -wal")
		os.Exit(2)
	}
	if *failover && *chaos {
		fmt.Fprintln(os.Stderr, "psload: -chaos and -chaos-failover are mutually exclusive")
		os.Exit(2)
	}
	ratios, err := parseMix(*mix)
	if err != nil {
		fmt.Fprintf(os.Stderr, "psload: %v\n", err)
		os.Exit(2)
	}

	h := &harness{
		base:    "http://" + *addr,
		clients: *clients,
		ratios:  ratios,
		seed:    *seed,
		acked:   map[uint64]bool{},
	}

	var srv, srvB *serverProc
	if *spawn {
		wal := *walPath
		if *failover {
			// Each node of the replicated pair keeps its own log for its
			// whole lifetime, across role swaps.
			wal = *walPath + ".a"
		}
		srv = &serverProc{
			bin: *psserve, addr: *addr, program: *program, wal: wal,
			maxInFlight: *maxInFlight, maxQueue: *maxQueue,
		}
		if err := srv.start(); err != nil {
			fmt.Fprintf(os.Stderr, "psload: spawn: %v\n", err)
			os.Exit(1)
		}
		defer srv.kill()
		if err := h.waitHealthy(10 * time.Second); err != nil {
			fmt.Fprintf(os.Stderr, "psload: server never became healthy: %v\n", err)
			os.Exit(1)
		}
		if *failover {
			srvB = &serverProc{
				bin: *psserve, addr: *replicaAddr, program: *program, wal: *walPath + ".b",
				maxInFlight: *maxInFlight, maxQueue: *maxQueue,
				replicaOf: "http://" + *addr,
			}
			if err := srvB.start(); err != nil {
				fmt.Fprintf(os.Stderr, "psload: spawn replica: %v\n", err)
				os.Exit(1)
			}
			defer srvB.kill()
			if err := h.waitHealthyAt("http://"+*replicaAddr, 10*time.Second); err != nil {
				fmt.Fprintf(os.Stderr, "psload: replica never became healthy: %v\n", err)
				os.Exit(1)
			}
		}
	}

	rep := report{
		Workload: *label, Clients: *clients, Mix: *mix,
		Chaos: *chaos || *failover, Failover: *failover,
	}
	start := time.Now()
	if *failover {
		err = h.runFailover([2]*serverProc{srv, srvB}, *cycles, *duration, &rep)
	} else if *chaos {
		err = h.runChaos(srv, *duration, &rep)
	} else {
		// QUEL range declaration for the query mix (the chaos path
		// declares its own, per server incarnation).
		h.post("/v1/quel", `{"stmt":"range of i is Item"}`)
		h.runLoad(*duration)
	}
	rep.DurationMS = float64(time.Since(start).Nanoseconds()) / 1e6
	if err != nil {
		fmt.Fprintf(os.Stderr, "psload: %v\n", err)
		os.Exit(1)
	}

	h.fill(&rep)
	if sn, err := h.serverMetrics(); err == nil {
		rep.GroupCommits = sn.Server.GroupCommits
		rep.GroupWaiters = sn.Server.GroupWaiters
		rep.WALAppends = sn.Durability.WALAppends
		rep.WALSyncs = sn.Durability.WALSyncs
	}

	if *spawn {
		srv.terminate(15 * time.Second)
		if srvB != nil {
			srvB.terminate(15 * time.Second)
		}
	}

	text, _ := json.MarshalIndent(&rep, "", "  ")
	fmt.Println(string(text))
	if *out != "" {
		// The report file is an array of runs: successive invocations
		// (overload pass, chaos pass, ...) append to it.
		runs := []report{}
		if prev, err := os.ReadFile(*out); err == nil {
			_ = json.Unmarshal(prev, &runs)
		}
		runs = append(runs, rep)
		all, _ := json.MarshalIndent(runs, "", "  ")
		if err := os.WriteFile(*out, append(all, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "psload: write %s: %v\n", *out, err)
			os.Exit(1)
		}
	}
	if rep.OracleMissing > 0 || (rep.Chaos && !rep.AuditClean) {
		fmt.Fprintln(os.Stderr, "psload: FAIL — durability oracle violated")
		os.Exit(1)
	}
	if rep.FenceLeaks > 0 || rep.RejoinMismatch > 0 {
		fmt.Fprintln(os.Stderr, "psload: FAIL — failover drill violated (fence leak or rejoin divergence)")
		os.Exit(1)
	}
}

// report is the BENCH_8.json shape.
type report struct {
	Workload         string  `json:"workload"`
	Clients          int     `json:"clients"`
	Mix              string  `json:"mix"`
	DurationMS       float64 `json:"duration_ms"`
	Ops              int64   `json:"ops"`
	OK               int64   `json:"ok"`
	Rejected         int64   `json:"rejected"` // shed with 429
	Errors           int64   `json:"errors"`
	ThroughputPerSec float64 `json:"throughput_per_sec"`
	P50MS            float64 `json:"p50_ms"`
	P99MS            float64 `json:"p99_ms"`
	GroupCommits     int64   `json:"group_commits"`
	GroupWaiters     int64   `json:"group_waiters"`
	WALAppends       int64   `json:"wal_appends"`
	WALSyncs         int64   `json:"wal_syncs"`
	Chaos            bool    `json:"chaos"`
	RecoveryWallMS   float64 `json:"recovery_wall_ms,omitempty"`   // kill → healthy again
	RecoveryReplayMS float64 `json:"recovery_replay_ms,omitempty"` // WAL replay inside Load
	RecoveredTxns    int     `json:"recovered_txns,omitempty"`
	OracleAcked      int     `json:"oracle_acked,omitempty"` // live acked assertions checked
	OracleMissing    int     `json:"oracle_missing"`         // acked but absent after recovery (must be 0)
	AuditClean       bool    `json:"audit_clean"`

	// Failover drill (-chaos-failover) results.
	Failover       bool    `json:"failover,omitempty"`
	Failovers      int     `json:"failovers,omitempty"`       // completed kill→promote→rejoin cycles
	FailoverP50MS  float64 `json:"failover_p50_ms,omitempty"` // kill → promoted and writable
	FailoverMaxMS  float64 `json:"failover_max_ms,omitempty"`
	LagP50Bytes    int64   `json:"lag_p50_bytes"` // replica lag sampled under load
	LagP99Bytes    int64   `json:"lag_p99_bytes"`
	FencedAppends  int     `json:"fenced_appends,omitempty"` // stale-epoch appends rejected with 409
	FenceLeaks     int     `json:"fence_leaks"`              // stale-epoch appends accepted (must be 0)
	RejoinMismatch int     `json:"rejoin_mismatch"`          // WM/conflict divergences after rejoin (must be 0)
}

// harness drives the load and keeps the acknowledgement oracle.
type harness struct {
	base    string
	clients int
	ratios  [3]int // assert, retract, query
	seed    int64

	ops      atomic.Int64
	ok       atomic.Int64
	rejected atomic.Int64
	errors   atomic.Int64

	mu        sync.Mutex
	latencies []float64       // ms
	acked     map[uint64]bool // acked tuple IDs still live (not acked-retracted)

	httpc *http.Client
}

func (h *harness) client() *http.Client {
	if h.httpc == nil {
		h.httpc = &http.Client{Timeout: 30 * time.Second}
	}
	return h.httpc
}

// retryDelay reads the server's backoff hint on a 429: the
// millisecond-precision Retry-After-Ms header when present, the coarse
// Retry-After (seconds) otherwise, a small default when neither is
// there. A ±25% local jitter keeps clients that shared one hint from
// re-synchronizing, and a cap keeps a bad hint from stalling the
// harness.
func retryDelay(resp *http.Response) time.Duration {
	d := 5 * time.Millisecond
	if ms := resp.Header.Get("Retry-After-Ms"); ms != "" {
		if n, err := strconv.ParseInt(ms, 10, 64); err == nil && n > 0 {
			d = time.Duration(n) * time.Millisecond
		}
	} else if sec := resp.Header.Get("Retry-After"); sec != "" {
		if n, err := strconv.ParseInt(sec, 10, 64); err == nil && n > 0 {
			d = time.Duration(n) * time.Second
		}
	}
	if d > 2*time.Second {
		d = 2 * time.Second
	}
	return d*3/4 + time.Duration(rand.Int63n(int64(d)/2+1))
}

func (h *harness) waitHealthy(d time.Duration) error {
	return h.waitHealthyAt(h.base, d)
}

func (h *harness) waitHealthyAt(base string, d time.Duration) error {
	deadline := time.Now().Add(d)
	for {
		resp, err := h.client().Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			if err == nil {
				return fmt.Errorf("healthz kept failing")
			}
			return err
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// post sends one JSON request, records latency and outcome, and
// reports whether it was acknowledged with 200.
func (h *harness) post(path, body string) bool {
	ok, _ := h.postIDs(path, body)
	return ok
}

// postIDs is post plus the batch response's minted tuple IDs — the
// currency of the acknowledgement oracle.
func (h *harness) postIDs(path, body string) (bool, []uint64) {
	t0 := time.Now()
	resp, err := h.client().Post(h.base+path, "application/json", strings.NewReader(body))
	ms := float64(time.Since(t0).Nanoseconds()) / 1e6
	h.ops.Add(1)
	h.mu.Lock()
	h.latencies = append(h.latencies, ms)
	h.mu.Unlock()
	if err != nil {
		h.errors.Add(1)
		return false, nil
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		h.ok.Add(1)
		var out struct {
			IDs []uint64 `json:"ids"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&out)
		return true, out.IDs
	case http.StatusTooManyRequests:
		h.rejected.Add(1)
		// Shed: honor the server's Retry-After hint (with local jitter)
		// and let the retry happen organically on the next loop
		// iteration.
		time.Sleep(retryDelay(resp))
		return false, nil
	default:
		h.errors.Add(1)
		return false, nil
	}
}

func (h *harness) get(path string) (int, []byte) {
	return h.getAt(h.base, path)
}

func (h *harness) getAt(base, path string) (int, []byte) {
	resp, err := h.client().Get(base + path)
	if err != nil {
		return 0, nil
	}
	defer resp.Body.Close()
	var buf strings.Builder
	b := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(b)
		buf.Write(b[:n])
		if err != nil {
			break
		}
	}
	return resp.StatusCode, []byte(buf.String())
}

// runLoad drives the mixed workload for d across h.clients goroutines.
func (h *harness) runLoad(d time.Duration) {
	stop := time.Now().Add(d)
	var wg sync.WaitGroup
	for c := 0; c < h.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(h.seed + int64(c)))
			next := uint64(c)<<32 | 1 // per-client attribute-id space
			var mine []uint64         // this client's live acked tuple IDs
			for time.Now().Before(stop) {
				p := rng.Intn(100)
				switch {
				case p < h.ratios[0] || len(mine) == 0 && p < h.ratios[0]+h.ratios[1]:
					id := next
					next++
					qty := rng.Intn(100)
					ok, ids := h.postIDs("/v1/batch", fmt.Sprintf(
						`{"ops":[{"op":"assert","class":"Item","values":[%d,%d]}]}`, id, qty))
					if ok && len(ids) == 1 {
						mine = append(mine, ids[0])
						h.mu.Lock()
						h.acked[ids[0]] = true
						h.mu.Unlock()
					}
				case p < h.ratios[0]+h.ratios[1]:
					i := rng.Intn(len(mine))
					tid := mine[i]
					if h.post("/v1/batch", fmt.Sprintf(
						`{"ops":[{"op":"retract","class":"Item","id":%d}]}`, tid)) {
						mine[i] = mine[len(mine)-1]
						mine = mine[:len(mine)-1]
						h.mu.Lock()
						delete(h.acked, tid)
						h.mu.Unlock()
					}
				default:
					if rng.Intn(2) == 0 {
						h.get("/v1/wm")
						h.ops.Add(1)
						h.ok.Add(1)
					} else {
						h.post("/v1/quel", `{"stmt":"retrieve (i.id)"}`)
					}
				}
			}
		}(c)
	}
	wg.Wait()
}

// runChaos is the kill-and-recover drill: load, SIGKILL mid-flight,
// restart, measure recovery, check the acknowledgement oracle and the
// integrity audit, then finish the load on the recovered server.
func (h *harness) runChaos(srv *serverProc, d time.Duration, rep *report) error {
	// QUEL range declaration for the query mix, session state on the
	// first server incarnation.
	h.post("/v1/quel", `{"stmt":"range of i is Item"}`)
	h.runLoad(d / 2)

	if err := srv.kill(); err != nil {
		return fmt.Errorf("chaos kill: %w", err)
	}
	t0 := time.Now()
	if err := srv.start(); err != nil {
		return fmt.Errorf("chaos restart: %w", err)
	}
	if err := h.waitHealthy(30 * time.Second); err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	rep.RecoveryWallMS = float64(time.Since(t0).Nanoseconds()) / 1e6

	if code, body := h.get("/v1/recovery"); code == http.StatusOK {
		var rec struct {
			Recovered bool  `json:"recovered"`
			Txns      int   `json:"txns"`
			ElapsedNS int64 `json:"elapsed_ns"`
		}
		if json.Unmarshal(body, &rec) == nil {
			if !rec.Recovered {
				return fmt.Errorf("server restarted without recovering the WAL")
			}
			rep.RecoveredTxns = rec.Txns
			rep.RecoveryReplayMS = float64(rec.ElapsedNS) / 1e6
		}
	}

	missing, checked, err := h.checkOracle()
	if err != nil {
		return err
	}
	rep.OracleAcked = checked
	rep.OracleMissing = missing

	rep.AuditClean = h.auditClean()

	// Finish the load on the recovered incarnation: service must be
	// fully writable again after recovery.
	h.post("/v1/quel", `{"stmt":"range of i is Item"}`)
	h.runLoad(d / 2)
	return nil
}

// runFailover is the log-shipping failover drill. Each cycle: load the
// primary while sampling replica lag, quiesce, wait for verified
// catch-up (the replica mirrors the primary's exact epoch and offset),
// SIGKILL the primary, detect the death with consecutive failed health
// probes, promote the replica, redirect clients, and check the
// acknowledgement oracle and audit on the new primary. Then the old
// primary is resurrected as a primary and every append tagged with the
// promoted epoch must be fenced with 409; finally it rejoins as a
// replica of the new primary and both nodes' working memories and
// conflict sets must compare byte-identical. Roles swap and the next
// cycle runs the other way.
func (h *harness) runFailover(procs [2]*serverProc, cycles int, d time.Duration, rep *report) error {
	per := d / time.Duration(cycles)
	if per <= 0 {
		per = time.Second
	}
	base := func(p *serverProc) string { return "http://" + p.addr }
	var lagSamples []int64
	var failovers []float64
	clean := true
	pi := 0
	for cycle := 0; cycle < cycles; cycle++ {
		pri, sec := procs[pi], procs[1-pi]
		h.base = base(pri)
		h.post("/v1/quel", `{"stmt":"range of i is Item"}`)

		// Load the primary while a sampler polls the replica's lag.
		stopSample := make(chan struct{})
		var sampleWG sync.WaitGroup
		sampleWG.Add(1)
		go func() {
			defer sampleWG.Done()
			tick := time.NewTicker(20 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopSample:
					return
				case <-tick.C:
					if st, err := h.replicationOf(base(sec)); err == nil && st.Role == "replica" {
						lagSamples = append(lagSamples, st.LagBytes)
					}
				}
			}
		}()
		h.runLoad(per)
		close(stopSample)
		sampleWG.Wait()

		// Verified catch-up before the kill: with asynchronous shipping,
		// an acked commit that never reached the replica would be
		// legitimately lost — the drill's zero-loss oracle is only
		// meaningful once the mirror is exact.
		if err := h.waitCatchup(base(pri), base(sec), 30*time.Second); err != nil {
			return fmt.Errorf("cycle %d catch-up: %w", cycle, err)
		}

		t0 := time.Now()
		if err := pri.kill(); err != nil {
			return fmt.Errorf("cycle %d kill: %w", cycle, err)
		}
		// Automatic failover: promote only after consecutive failed
		// health probes, the drill's stand-in for a failure detector.
		if err := h.waitDead(base(pri), 3, 10*time.Second); err != nil {
			return fmt.Errorf("cycle %d: killed primary kept answering probes: %w", cycle, err)
		}
		newEpoch, err := h.promote(base(sec))
		if err != nil {
			return fmt.Errorf("cycle %d promote: %w", cycle, err)
		}
		failovers = append(failovers, float64(time.Since(t0).Nanoseconds())/1e6)

		// Redirect clients to the new primary and run the oracle there.
		h.base = base(sec)
		missing, checked, err := h.checkOracle()
		if err != nil {
			return fmt.Errorf("cycle %d: %w", cycle, err)
		}
		rep.OracleAcked = checked
		rep.OracleMissing += missing
		clean = clean && h.auditClean()

		// Resurrect the old primary as a primary — the split-brain
		// scenario. Its log is stuck at the retired epoch, so every
		// append tagged with the promoted epoch must be fenced.
		pri.replicaOf = ""
		if err := pri.start(); err != nil {
			return fmt.Errorf("cycle %d resurrect: %w", cycle, err)
		}
		if err := h.waitHealthyAt(base(pri), 30*time.Second); err != nil {
			return fmt.Errorf("cycle %d resurrect: %w", cycle, err)
		}
		for i := 0; i < 5; i++ {
			code, stale := h.fencedAppend(base(pri), newEpoch)
			if code == http.StatusConflict && stale {
				rep.FencedAppends++
			} else {
				rep.FenceLeaks++
			}
		}

		// Demote: restart the old primary as a replica of the new one
		// and wait until it has verifiably caught up.
		if err := pri.kill(); err != nil {
			return fmt.Errorf("cycle %d demote: %w", cycle, err)
		}
		pri.replicaOf = base(sec)
		if err := pri.start(); err != nil {
			return fmt.Errorf("cycle %d rejoin: %w", cycle, err)
		}
		if err := h.waitHealthyAt(base(pri), 30*time.Second); err != nil {
			return fmt.Errorf("cycle %d rejoin: %w", cycle, err)
		}
		if err := h.waitCatchup(base(sec), base(pri), 30*time.Second); err != nil {
			return fmt.Errorf("cycle %d rejoin catch-up: %w", cycle, err)
		}
		rep.RejoinMismatch += h.compareNodes(base(sec), base(pri))
		pi = 1 - pi
	}

	rep.Failovers = cycles
	rep.AuditClean = clean
	sort.Float64s(failovers)
	if len(failovers) > 0 {
		rep.FailoverP50MS = failovers[len(failovers)/2]
		rep.FailoverMaxMS = failovers[len(failovers)-1]
	}
	if len(lagSamples) > 0 {
		sort.Slice(lagSamples, func(i, j int) bool { return lagSamples[i] < lagSamples[j] })
		rep.LagP50Bytes = lagSamples[len(lagSamples)/2]
		rep.LagP99Bytes = lagSamples[len(lagSamples)*99/100]
	}
	return nil
}

// replState is the /v1/replication response slice the drill reads.
type replState struct {
	Role     string `json:"role"`
	Epoch    uint64 `json:"epoch"`
	Offset   int64  `json:"offset"`
	LagBytes int64  `json:"lag_bytes"`
}

func (h *harness) replicationOf(base string) (replState, error) {
	code, body := h.getAt(base, "/v1/replication")
	if code != http.StatusOK {
		return replState{}, fmt.Errorf("replication: status %d", code)
	}
	var st replState
	if err := json.Unmarshal(body, &st); err != nil {
		return replState{}, err
	}
	return st, nil
}

// waitCatchup blocks until the replica's applied position equals the
// primary's live position — verified catch-up, not a lag heuristic.
func (h *harness) waitCatchup(primary, replica string, d time.Duration) error {
	deadline := time.Now().Add(d)
	for {
		ps, perr := h.replicationOf(primary)
		rs, rerr := h.replicationOf(replica)
		if perr == nil && rerr == nil && rs.Role == "replica" &&
			rs.Epoch == ps.Epoch && rs.Offset == ps.Offset {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replica at %d:%d, primary at %d:%d (perr=%v rerr=%v)",
				rs.Epoch, rs.Offset, ps.Epoch, ps.Offset, perr, rerr)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// waitDead probes /healthz until `consecutive` probes in a row fail —
// the drill's failure detector.
func (h *harness) waitDead(base string, consecutive int, d time.Duration) error {
	deadline := time.Now().Add(d)
	fails := 0
	for {
		resp, err := h.client().Get(base + "/healthz")
		if err != nil {
			fails++
		} else {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				fails = 0
			} else {
				fails++
			}
		}
		if fails >= consecutive {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("probes kept succeeding")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func (h *harness) promote(base string) (uint64, error) {
	resp, err := h.client().Post(base+"/v1/promote", "application/json", strings.NewReader(`{}`))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var out struct {
		Promoted bool   `json:"promoted"`
		Epoch    uint64 `json:"epoch"`
		Error    string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK || !out.Promoted {
		return 0, fmt.Errorf("promote: status %d: %s", resp.StatusCode, out.Error)
	}
	return out.Epoch, nil
}

// fencedAppend sends an assert tagged with the promoted epoch to the
// resurrected old primary. A correct node rejects it 409 stale_epoch.
func (h *harness) fencedAppend(base string, epoch uint64) (code int, stale bool) {
	req, err := http.NewRequest("POST", base+"/v1/batch",
		strings.NewReader(`{"ops":[{"op":"assert","class":"Item","values":[0,0]}]}`))
	if err != nil {
		return 0, false
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Prodsys-Epoch", strconv.FormatUint(epoch, 10))
	resp, err := h.client().Do(req)
	if err != nil {
		return 0, false
	}
	defer resp.Body.Close()
	var body struct {
		StaleEpoch bool `json:"stale_epoch"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&body)
	return resp.StatusCode, body.StaleEpoch
}

// compareNodes counts divergences between two nodes' working memories
// and conflict sets; a caught-up replica must mirror its primary
// exactly.
func (h *harness) compareNodes(a, b string) int {
	mismatch := 0
	wa, oka := h.wmFingerprint(a)
	wb, okb := h.wmFingerprint(b)
	if !oka || !okb || wa != wb {
		mismatch++
	}
	ca, sa := h.getAt(a, "/v1/conflicts")
	cb, sb := h.getAt(b, "/v1/conflicts")
	if ca != http.StatusOK || cb != http.StatusOK || string(sa) != string(sb) {
		mismatch++
	}
	return mismatch
}

// wmFingerprint renders a node's Item working memory as a sorted,
// order-independent string.
func (h *harness) wmFingerprint(base string) (string, bool) {
	code, body := h.getAt(base, "/v1/wm?class=Item")
	if code != http.StatusOK {
		return "", false
	}
	var wm struct {
		Tuples []string `json:"tuples"`
	}
	if err := json.Unmarshal(body, &wm); err != nil {
		return "", false
	}
	sort.Strings(wm.Tuples)
	return strings.Join(wm.Tuples, "\n"), true
}

// checkOracle fetches the recovered WM and verifies every acked-live
// assertion survived. Extra tuples are legal (committed but unacked at
// the kill); missing acked tuples are a durability violation.
func (h *harness) checkOracle() (missing, checked int, err error) {
	code, body := h.get("/v1/wm?class=Item")
	if code != http.StatusOK {
		return 0, 0, fmt.Errorf("oracle: /v1/wm returned %d", code)
	}
	var wm struct {
		Tuples []string `json:"tuples"`
	}
	if err := json.Unmarshal(body, &wm); err != nil {
		return 0, 0, fmt.Errorf("oracle: %w", err)
	}
	live := map[uint64]bool{}
	for _, t := range wm.Tuples {
		// WMClass renders "id: (v, ...)".
		if i := strings.IndexByte(t, ':'); i > 0 {
			if id, err := strconv.ParseUint(t[:i], 10, 64); err == nil {
				live[id] = true
			}
		}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for id := range h.acked {
		checked++
		if !live[id] {
			missing++
		}
	}
	return missing, checked, nil
}

func (h *harness) auditClean() bool {
	resp, err := h.client().Post(h.base+"/v1/audit", "application/json", strings.NewReader(`{}`))
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	var out struct {
		Clean bool `json:"clean"`
	}
	if json.NewDecoder(resp.Body).Decode(&out) != nil {
		return false
	}
	return resp.StatusCode == http.StatusOK && out.Clean
}

type metricsSnapshot struct {
	Server struct {
		GroupCommits int64
		GroupWaiters int64
	}
	Durability struct {
		WALAppends int64
		WALSyncs   int64
	}
}

func (h *harness) serverMetrics() (*metricsSnapshot, error) {
	code, body := h.get("/v1/metrics")
	if code != http.StatusOK {
		return nil, fmt.Errorf("metrics: %d", code)
	}
	var sn metricsSnapshot
	if err := json.Unmarshal(body, &sn); err != nil {
		return nil, err
	}
	return &sn, nil
}

func (h *harness) fill(rep *report) {
	rep.Ops = h.ops.Load()
	rep.OK = h.ok.Load()
	rep.Rejected = h.rejected.Load()
	rep.Errors = h.errors.Load()
	if rep.DurationMS > 0 {
		rep.ThroughputPerSec = float64(rep.OK) / (rep.DurationMS / 1000)
	}
	h.mu.Lock()
	lats := append([]float64(nil), h.latencies...)
	h.mu.Unlock()
	if len(lats) > 0 {
		sort.Float64s(lats)
		rep.P50MS = lats[len(lats)/2]
		rep.P99MS = lats[len(lats)*99/100]
	}
	if !rep.Chaos {
		rep.AuditClean = h.auditClean()
	}
}

// serverProc manages a spawned psserve process. replicaOf, when set,
// starts the node as a warm replica of that primary; the field is
// mutated between restarts as the failover drill swaps roles.
type serverProc struct {
	bin, addr, program, wal string
	maxInFlight, maxQueue   int
	replicaOf               string
	cmd                     *exec.Cmd
}

func (p *serverProc) start() error {
	args := []string{
		"-addr", p.addr, "-program", p.program, "-wal", p.wal,
		"-wal-sync", "group",
		"-max-inflight", strconv.Itoa(p.maxInFlight),
		"-max-queue", strconv.Itoa(p.maxQueue),
	}
	if p.replicaOf != "" {
		args = append(args, "-replica-of", p.replicaOf)
	}
	cmd := exec.Command(p.bin, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return err
	}
	p.cmd = cmd
	return nil
}

// kill SIGKILLs the server — the chaos event. No drain, no checkpoint:
// whatever reached the log is all that survives.
func (p *serverProc) kill() error {
	if p.cmd == nil || p.cmd.Process == nil {
		return nil
	}
	if err := p.cmd.Process.Kill(); err != nil && !strings.Contains(err.Error(), "already finished") {
		return err
	}
	_ = p.cmd.Wait()
	p.cmd = nil
	return nil
}

// terminate SIGTERMs the server and waits for the graceful drain.
func (p *serverProc) terminate(d time.Duration) {
	if p.cmd == nil || p.cmd.Process == nil {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { _, _ = p.cmd.Process.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(d):
		_ = p.cmd.Process.Kill()
	}
	p.cmd = nil
}

func parseMix(s string) ([3]int, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 3 {
		return [3]int{}, fmt.Errorf("mix %q: want assert,retract,query", s)
	}
	var r [3]int
	sum := 0
	for i, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < 0 {
			return r, fmt.Errorf("mix %q: bad component %q", s, p)
		}
		r[i] = n
		sum += n
	}
	if sum != 100 {
		return r, fmt.Errorf("mix %q: components must sum to 100, got %d", s, sum)
	}
	return r, nil
}
