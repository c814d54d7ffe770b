package main

// The traced pass: per-layer numbers measured from outside. A fixed prefix
// of the workload's op stream is replayed by one goroutine through
// successively thinner peels of the system,
//
//	peel.handler     ops enter server.Handler().ServeHTTP, WAL on (serve-mixed only)
//	peel.commit-wal  the same ops through Batch.Commit / Quel, WAL on (serve-mixed only)
//	peel.commit      no WAL — what the embedded workloads run untraced
//	peel.norules     the same relations with every production stripped
//
// and a layer's self time is its peel minus the next one in. Work counters
// are read as before/after deltas of Metrics().Counters around the same
// boundaries; with one goroutine and a fixed op count they repeat exactly.

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"prodsys"
	"prodsys/internal/server"
)

// minTracedOps keeps a scaled-down traced prefix long enough to exercise
// every op kind.
const minTracedOps = 20

// peelSpec says how one replay is set up.
type peelSpec struct {
	name       string
	src        string
	opts       prodsys.Options
	n          int
	wal        bool // WAL on, group sync, through a timed filesystem
	handler    bool // ops enter through the HTTP handler
	concurrent bool // waves run RunConcurrent
	norules    bool // src has no productions: nothing to run, empty conflict set
	recover    bool // after the replay, reopen the log (replay time) and checkpoint
}

// peel is what one replay measured.
type peel struct {
	ops      int
	totalNs  int64   // sum of op durations
	lat      []int64 // sorted op durations
	delta    map[string]int64
	final    map[string]int64 // absolute counters at the end
	seen     applyStats
	queryNs  int64
	scanned  int64 // tuples_scanned attributed to query ops
	writes   int   // ops that commit (not queries)
	userByte int64

	conflictSize int
	stateHash    string
	auditMs      float64

	mem runtime.MemStats // after − before: Mallocs, TotalAlloc, PauseTotalNs; GCCPUFraction absolute

	fs           *timedFS
	checkpointMs float64
	replayUs     float64
}

func (p *peel) usPerOp() float64 { return float64(p.totalNs) / 1e3 / float64(p.ops) }

// userBytes is the payload an op carries: 8 bytes per number or tuple id,
// the spelling of a symbol.
func userBytes(o op) int64 {
	n := int64(8 * len(o.retracts))
	for _, f := range o.asserts {
		for _, v := range f.vals {
			if s, ok := v.(string); ok {
				n += int64(len(s))
			} else {
				n += 8
			}
		}
	}
	return n
}

// replay sets a target up as spec says, runs the first n ops of the stream
// through it and verifies the final state.
func replay(w workload, cfg config, spec peelSpec, tr *tracer, out *outcome) (*peel, error) {
	g := w.newGen(cfg.seed, cfg.scale)
	p := &peel{}
	opts := spec.opts
	if spec.wal {
		dir := filepath.Join(cfg.workDir, spec.name)
		if err := os.RemoveAll(dir); err != nil { // a log left here would be recovered, not started
			return nil, err
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		p.fs = newTimedFS(tr)
		opts.WALPath = filepath.Join(dir, "wm.wal")
		opts.WALSync = prodsys.WALSyncGroup // psserve's default
		opts.WALFS = p.fs
	}
	t, err := setup(spec.src, g, opts)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec.name, err)
	}
	defer func() { t.sys.Close() }()
	t.concurrent = spec.concurrent
	t.norules = spec.norules
	if spec.handler {
		t.handler = server.New(t.sys, server.Config{}).Handler()
	}
	if p.fs != nil {
		p.fs.reset()
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	before := t.counters()
	if tr != nil {
		tr.on.Store(true)
	}
	p.lat = make([]int64, 0, spec.n)
	for i := 0; i < spec.n; i++ {
		o := g.next()
		var q0 map[string]int64
		if o.kind == opQuery {
			q0 = t.counters()
		} else {
			p.writes++
			p.userByte += userBytes(o)
		}
		root := tr.root(spec.name, "op")
		t0 := time.Now()
		err := t.apply(o, tr, root)
		d := int64(time.Since(t0))
		tr.end(root)
		out.did(err)
		p.lat = append(p.lat, d)
		p.totalNs += d
		if o.kind == opQuery {
			p.queryNs += d
			p.scanned += t.counters()["tuples_scanned"] - q0["tuples_scanned"]
		}
	}
	if tr != nil {
		tr.on.Store(false)
	}
	p.final = t.counters()
	p.delta = delta(p.final, before)
	runtime.ReadMemStats(&m1)
	p.mem = m1
	p.mem.Mallocs -= m0.Mallocs
	p.mem.TotalAlloc -= m0.TotalAlloc
	p.mem.PauseTotalNs -= m0.PauseTotalNs
	p.ops = spec.n
	p.seen = t.applyStats
	slices.Sort(p.lat)

	a0 := time.Now()
	t.verify(g, out)
	p.auditMs = float64(time.Since(a0)) / 1e6
	p.conflictSize = len(t.sys.ConflictKeys())
	p.stateHash = t.stateHash()

	if spec.recover {
		// Reopen the log as a crash would find it: replay time per unit,
		// then the cost of one checkpoint.
		if err := t.sys.Close(); err != nil {
			return nil, err
		}
		t2, err := loadTarget(spec.src, opts)
		if err != nil {
			return nil, fmt.Errorf("%s: reopen log: %w", spec.name, err)
		}
		t.sys = t2.sys // the deferred Close now closes the reopened system
		rec := t2.sys.Recovery()
		if rec.Txns > 0 {
			p.replayUs = float64(rec.Elapsed) / 1e3 / float64(rec.Txns)
		}
		var err2 error
		if hash := t2.stateHash(); hash != p.stateHash {
			err2 = fmt.Errorf("%s: state after WAL replay differs from the state before close", spec.name)
		}
		out.did(err2)
		c0 := time.Now()
		err = t2.sys.Checkpoint()
		p.checkpointMs = float64(time.Since(c0)) / 1e6
		out.did(err)
	}
	return p, nil
}

// calibrate times a fixed spin loop: a number that moves when a neighbour
// takes the core, not when the program changes.
func calibrate(scale float64) float64 {
	iters := scaled(200_000_000, scale, 1_000_000)
	x := uint64(88172645463325252)
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	d := time.Since(t0)
	if x == 0 {
		fmt.Fprintln(os.Stderr, "calibrate: xorshift reached zero") // keeps x live; cannot happen
	}
	return float64(d) / float64(iters)
}

// loadMs is the median time to parse, compile and catalogue the program.
func loadMs(src string) (float64, error) {
	var ms []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		t, err := loadTarget(src, prodsys.Options{})
		if err != nil {
			return 0, err
		}
		ms = append(ms, float64(time.Since(t0))/1e6)
		t.sys.Close()
	}
	return median(ms), nil
}

// exactCounters are the work counters reported bit for bit from peel.commit.
var exactCounters = []string{
	"tuples_inserted", "tuples_deleted", "tuples_scanned", "index_lookups", "index_range_probes",
	"batch_inserts", "intern_hits", "candidate_checks", "false_drops", "pattern_searches",
	"joins_computed", "patterns_stored", "cond_tuples_stored", "tokens_stored",
	"instantiations", "retractions", "rule_firings", "txn_commits", "plans_built",
}

func runTraced(w workload, cfg config) (*outcome, error) {
	out := newOutcome()
	for _, d := range perLayer {
		out.set(d.name, 0) // a layer that does no work on this workload reports 0
	}
	out.set("host.calib_ns_per_iter", calibrate(cfg.scale))
	out.set("host.num_cpu", float64(runtime.NumCPU()))
	out.set("host.gomaxprocs", float64(runtime.GOMAXPROCS(0)))

	src := programSource(w.program)
	n := scaled(w.tracedOps, cfg.scale, minTracedOps)
	serve := w.name == "serve-mixed"
	tr := newTracer()

	ms, err := loadMs(src)
	if err != nil {
		return nil, err
	}
	out.set("rules.load_ms", ms)

	// A discarded replay first, so that no measured peel pays for growing
	// the heap.
	if _, err := replay(w, cfg, peelSpec{name: "peel.warm-up", src: src, n: n / 4}, nil, out); err != nil {
		return nil, err
	}
	var handler, commitWAL *peel
	if serve {
		if handler, err = replay(w, cfg, peelSpec{name: "peel.handler", src: src, n: n, wal: true, handler: true}, tr, out); err != nil {
			return nil, err
		}
		if commitWAL, err = replay(w, cfg, peelSpec{name: "peel.commit-wal", src: src, n: n, wal: true, recover: true}, tr, out); err != nil {
			return nil, err
		}
	}
	plain, err := replay(w, cfg, peelSpec{name: "peel.commit-untraced", src: src, n: n}, nil, out)
	if err != nil {
		return nil, err
	}
	commit, err := replay(w, cfg, peelSpec{name: "peel.commit", src: src, n: n}, tr, out)
	if err != nil {
		return nil, err
	}
	norules, err := replay(w, cfg, peelSpec{name: "peel.norules", src: stripRules(src), n: n, norules: true}, tr, out)
	if err != nil {
		return nil, err
	}
	if commit.stateHash != plain.stateHash {
		out.did(fmt.Errorf("two replays of the same ops ended in different states"))
	}
	out.stateHash = commit.stateHash

	changes := wmChanges(commit.delta)
	d := commit.delta
	out.set("peel.commit_us_per_op", commit.usPerOp())
	out.set("peel.norules_us_per_op", norules.usPerOp())
	// Medians, not totals: one GC cycle or a neighbour's burst in either
	// replay would otherwise swamp the few percent this is meant to show.
	out.set("trace.overhead_ratio", percentile(commit.lat, 0.5)/percentile(plain.lat, 0.5))

	out.set("relation.self_us_per_change", ratio(norules.totalNs, wmChanges(norules.delta))/1e3)
	out.set("relation.tuples_scanned_per_change", ratio(d["tuples_scanned"], changes))
	out.set("relation.index_lookups_per_change", ratio(d["index_lookups"], changes))
	out.set("relation.index_range_probes_per_change", ratio(d["index_range_probes"], changes))
	out.set("relation.batch_inserts", float64(d["batch_inserts"]))
	out.set("relation.intern_hits", float64(d["intern_hits"]))

	matchNs := max(0, commit.totalNs-norules.totalNs) // below the noise floor on serve-mixed
	out.set("match.self_us_per_change", ratio(matchNs, changes)/1e3)
	outer := commit
	if serve {
		outer = handler
	}
	out.set("match.self_share", float64(matchNs)/float64(outer.totalNs))
	out.set("match.candidate_checks_per_change", ratio(d["candidate_checks"], changes))
	out.set("match.false_drops_per_change", ratio(d["false_drops"], changes))
	out.set("match.pattern_searches_per_change", ratio(d["pattern_searches"], changes))
	out.set("match.joins_computed_per_change", ratio(d["joins_computed"], changes))
	out.set("match.useful_ratio", ratio(d["instantiations"], d["candidate_checks"]))
	out.set("match.patterns_stored", float64(commit.final["patterns_stored"]-commit.final["patterns_deleted"]))
	out.set("match.cond_tuples_stored", float64(commit.final["cond_tuples_stored"]))
	out.set("match.tokens_stored", float64(commit.final["tokens_stored"]-commit.final["tokens_deleted"]))

	out.set("joiner.plans_built", float64(d["plans_built"]))
	out.set("joiner.plan_cache_hit_ratio", ratio(d["plan_cache_hits"], d["plan_cache_hits"]+d["plans_built"]))
	out.set("joiner.plan_invalidations", float64(d["plan_invalidations"]))

	out.set("conflict.instantiations_per_change", ratio(d["instantiations"], changes))
	out.set("conflict.retractions_per_change", ratio(d["retractions"], changes))
	out.set("conflict.size_final", float64(commit.conflictSize))

	out.set("engine.txn_commits", float64(d["txn_commits"]))
	out.set("engine.txn_aborts", float64(d["txn_aborts"]))
	out.set("engine.allocs_per_change", ratio(int64(plain.mem.Mallocs), changes))
	out.set("engine.bytes_per_change", ratio(int64(plain.mem.TotalAlloc), changes))
	out.set("engine.gc_pause_ms_total", float64(plain.mem.PauseTotalNs)/1e6)
	out.set("engine.gc_cpu_fraction", plain.mem.GCCPUFraction)
	out.set("audit.full_ms", commit.auditMs)
	if commit.seen.rows > 0 {
		out.set("quel.retrieve_us_per_row", float64(commit.queryNs)/1e3/float64(commit.seen.rows))
		out.set("quel.rows_scanned_per_row_returned", float64(commit.scanned)/float64(commit.seen.rows))
	}

	single, err := singleAsserts(w, cfg, stripRules(src), out)
	if err != nil {
		return nil, err
	}
	out.set("engine.commit_us_per_batch", single)

	if w.name == "jobshop-fire" {
		if err := tracedJobshop(w, cfg, src, n, commit, tr, out); err != nil {
			return nil, err
		}
	}
	if w.sweepOps > 0 {
		if err := sweep(w, cfg, src, out); err != nil {
			return nil, err
		}
	}
	if serve {
		if err := tracedServe(cfg, n, handler, commitWAL, commit, out); err != nil {
			return nil, err
		}
	}

	for _, k := range exactCounters {
		out.exact[k] = d[k]
	}
	out.exact["conflict_size_final"] = int64(commit.conflictSize)
	out.note("traced_ops", float64(n))
	out.note("wm_changes", float64(changes))
	out.note("spans", float64(len(tr.spans)))
	if err := tr.writeChrome(filepath.Join(cfg.outDir, "trace-"+w.name+".json")); err != nil {
		return nil, err
	}
	return out, nil
}

// singleAsserts times one-assert commits against the rule-free program:
// the fixed cost of the commit pipeline per batch.
func singleAsserts(w workload, cfg config, norulesSrc string, out *outcome) (float64, error) {
	g := w.newGen(cfg.seed, cfg.scale)
	t, err := setup(norulesSrc, g, prodsys.Options{})
	if err != nil {
		return 0, err
	}
	defer t.sys.Close()
	want := scaled(2000, cfg.scale, 50)
	var total time.Duration
	done := 0
	for done < want {
		for _, f := range g.next().asserts {
			one := op{kind: opCommit, asserts: []fact{f}}
			t0 := time.Now()
			err := t.apply(one, nil, 0)
			total += time.Since(t0)
			out.did(err)
			done++
		}
	}
	return float64(total) / 1e3 / float64(done), nil
}

// concurrentWorkers sizes RunConcurrent's pool in the traced jobshop replay.
func concurrentWorkers() int { return min(2, runtime.NumCPU()) }

// tracedJobshop adds the recognize-act numbers: Commit and Run spanned
// separately in peel.commit, and the same waves through RunConcurrent.
func tracedJobshop(w workload, cfg config, src string, n int, commit *peel, tr *tracer, out *outcome) error {
	firings := commit.seen.firings
	out.set("engine.fire_us_per_firing", float64(commit.seen.runNs)/1e3/float64(firings))
	serialRate := float64(firings) / (float64(commit.totalNs) / 1e9)
	out.set("engine.firings_per_s", serialRate)
	out.set("engine.cycles", float64(commit.delta["rule_firings"])) // serial: one firing per cycle
	conc, err := replay(w, cfg, peelSpec{
		name: "peel.commit-concurrent", src: src, n: n, concurrent: true,
		opts: prodsys.Options{Workers: concurrentWorkers()},
	}, tr, out)
	if err != nil {
		return err
	}
	if conc.stateHash != commit.stateHash {
		// Concurrent firing mints tuple ids in another order; compare sizes.
		if conc.conflictSize != commit.conflictSize {
			out.did(fmt.Errorf("RunConcurrent left %d instantiations, Run %d", conc.conflictSize, commit.conflictSize))
		}
	}
	cf := conc.seen.firings
	out.set("lock.waits_per_firing", ratio(conc.delta["lock_waits"], int64(cf)))
	out.set("lock.deadlocks", float64(conc.delta["deadlocks"]))
	out.set("lock.txn_retries", float64(conc.delta["txn_retries"]))
	out.set("engine.txn_aborts", float64(conc.delta["txn_aborts"]))
	out.set("engine.concurrent_vs_serial_ratio", float64(cf)/(float64(conc.totalNs)/1e9)/serialRate)
	return nil
}

// sweep replays a short prefix once per matcher and once per storage
// backend the program offers, and requires the same final state from all.
func sweep(w workload, cfg config, src string, out *outcome) error {
	n := scaled(w.sweepOps, cfg.scale, minTracedOps/2)
	hash := ""
	one := func(metric string, opts prodsys.Options) error {
		p, err := replay(w, cfg, peelSpec{name: metric, src: src, n: n, opts: opts}, nil, out)
		if err != nil {
			return err
		}
		if _, listed := out.values[metric]; listed {
			out.set(metric, ratio(p.totalNs, wmChanges(p.delta))/1e3)
		}
		var mismatch error
		if hash == "" {
			hash = p.stateHash
		} else if p.stateHash != hash {
			mismatch = fmt.Errorf("%s ended in a different state than the first alternative", metric)
		}
		out.did(mismatch)
		return nil
	}
	for _, m := range prodsys.Matchers() {
		if err := one(fmt.Sprintf("match.%s.us_per_change", m), prodsys.Options{Matcher: m}); err != nil {
			return err
		}
	}
	for _, s := range prodsys.Storages() {
		if err := one(fmt.Sprintf("relation.%s.us_per_change", s), prodsys.Options{Storage: s}); err != nil {
			return err
		}
	}
	out.note("sweep_ops", float64(n))
	return nil
}

// tracedServe derives the server and WAL numbers from the two outer peels
// and from a short pass against a real psserve with two clients.
func tracedServe(cfg config, n int, handler, commitWAL, commit *peel, out *outcome) error {
	out.set("peel.handler_us_per_op", handler.usPerOp())
	out.set("peel.commit_wal_us_per_op", commitWAL.usPerOp())
	out.set("server.self_us_per_req", float64(handler.totalNs-commitWAL.totalNs)/1e3/float64(handler.ops))
	out.set("wal.server_share", float64(handler.totalNs-commit.totalNs)/float64(handler.totalNs))

	writes := int64(commitWAL.writes)
	fs := commitWAL.fs
	syncs := fs.sortedSyncs()
	out.set("wal.self_us_per_commit", ratio(commitWAL.totalNs-commit.totalNs, writes)/1e3)
	out.set("wal.write_us_per_commit", ratio(fs.writeNs, writes)/1e3)
	out.set("wal.fsync_ms_p50", percentile(syncs, 0.50)/1e6)
	out.set("wal.fsync_ms_p99", percentile(syncs, 0.99)/1e6)
	out.set("wal.write_calls_per_commit", ratio(fs.writeCalls, writes))
	out.set("wal.bytes_per_change", ratio(commitWAL.delta["wal_bytes"], wmChanges(commitWAL.delta)))
	out.set("wal.bytes_per_user_byte", ratio(commitWAL.delta["wal_bytes"], commitWAL.userByte))
	out.set("wal.checkpoint_ms", commitWAL.checkpointMs)
	out.set("wal.replay_us_per_unit", commitWAL.replayUs)
	out.exact["wal_bytes"] = commitWAL.delta["wal_bytes"]
	out.exact["wal_records"] = commitWAL.delta["wal_records"]
	out.exact["wal_write_calls"] = fs.writeCalls
	out.note("wal_fsyncs", float64(len(syncs)))

	run, err := servePass(cfg, n, 0, out)
	if err != nil {
		return err
	}
	out.set("wal.recovery_s", run.recoveryS)
	out.set("wal.commits_per_fsync", ratio(run.delta["wal_appends"], run.delta["wal_syncs"]))
	out.set("server.admitted", float64(run.delta["server_admitted"]))
	out.set("server.rejected", float64(run.delta["server_rejected"]))
	out.set("server.assert_p50_ms", percentile(run.byKind[kindAssert], 0.50)/1e6)
	out.set("server.retract_p50_ms", percentile(run.byKind[kindRetract], 0.50)/1e6)
	out.set("server.query_p50_ms", percentile(run.byKind[kindQuery], 0.50)/1e6)
	out.set("server.query_p99_ms", percentile(run.byKind[kindQuery], 0.99)/1e6)
	out.set("server.http_stack_us_per_req", (percentile(run.lat, 0.50)-percentile(handler.lat, 0.50))/1e3)
	out.note("psserve_pass_ops", float64(run.ops))
	out.note("psserve_replay_us_per_unit", run.replayUs)
	return nil
}
