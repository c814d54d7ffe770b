// Command psserve runs a production system as a long-lived server: it
// loads an OPS5-subset program, opens a write-ahead log with group
// commit, and serves the transactional API over HTTP/JSON with
// admission control, overload shedding, read-only degradation on disk
// failure, and graceful drain on SIGTERM/SIGINT.
//
// Usage:
//
//	psserve -program program.ops -wal wm.wal [flags]
//
// Endpoints: POST /v1/batch (assert/retract transactions), POST /v1/run
// (recognize-act to quiescence), POST /v1/quel (QUEL statements), POST
// /v1/audit (online integrity audit), GET /v1/wm, /v1/plans,
// /v1/metrics, /v1/recovery, /metricsz (text counters), /healthz
// (liveness — 200 even read-only), /readyz (readiness — 503 when
// read-only or draining).
//
// Overload: at most -max-inflight requests execute while -max-queue
// wait; beyond that requests are shed with 429 + Retry-After. SIGTERM
// stops admissions, finishes in-flight transactions under
// -drain-timeout, checkpoints, and closes the WAL — committed work is
// never lost. See docs/SERVER.md.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"prodsys"
	"prodsys/internal/replica"
	"prodsys/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8372", "listen address")
	program := flag.String("program", "", "OPS5 program file to load (required)")
	walPath := flag.String("wal", "", "write-ahead log file; reopening recovers committed state")
	walSync := flag.String("wal-sync", "group", "WAL sync policy: always|interval|never|group")
	checkpointEvery := flag.Int("checkpoint-every", 0, "checkpoint after this many logged units (0 = never)")
	matcher := flag.String("matcher", "core", "matching algorithm: rete|requery|core|core-parallel|marker|ptree")
	maxInFlight := flag.Int("max-inflight", 32, "max concurrently executing requests")
	maxQueue := flag.Int("max-queue", 128, "max requests waiting for a slot before shedding 429")
	requestTimeout := flag.Duration("request-timeout", 10*time.Second, "per-request deadline propagated into the engine")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "how long SIGTERM waits for in-flight requests")
	replicaOf := flag.String("replica-of", "", "start as a warm replica of the primary at this base URL (requires -wal)")
	flag.Parse()

	if *program == "" {
		fmt.Fprintln(os.Stderr, "psserve: -program is required")
		flag.Usage()
		os.Exit(2)
	}

	sys, err := prodsys.LoadFile(*program, prodsys.Options{
		Matcher:            prodsys.Matcher(*matcher),
		Out:                os.Stdout,
		WALPath:            *walPath,
		WALSync:            prodsys.WALSyncMode(*walSync),
		WALCheckpointEvery: *checkpointEvery,
		ReplicaOf:          *replicaOf,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "psserve: %v\n", err)
		os.Exit(1)
	}
	if rec := sys.Recovery(); rec.Recovered {
		fmt.Printf("psserve: recovered checkpoint=%v tuples=%d txns=%d ops=%d torn_tail=%v in %s\n",
			rec.Checkpoint, rec.Tuples, rec.Txns, rec.Ops, rec.TornTail, rec.Elapsed)
	}

	cfg := server.Config{
		MaxInFlight:    *maxInFlight,
		MaxQueue:       *maxQueue,
		RequestTimeout: *requestTimeout,
		DrainTimeout:   *drainTimeout,
	}
	var feed *replica.Client
	if *replicaOf != "" {
		if *walPath == "" {
			fmt.Fprintln(os.Stderr, "psserve: -replica-of requires -wal (the feed mirrors into the local log)")
			os.Exit(2)
		}
		feed = replica.NewClient(sys, *replicaOf)
		feed.Logf = func(format string, args ...any) { fmt.Printf("psserve: "+format+"\n", args...) }
		feed.Start()
		// /v1/promote stops the feed client (no apply in flight) before
		// the promotion sequence runs.
		cfg.StopReplication = feed.Stop
		fmt.Printf("psserve: replica of %s\n", *replicaOf)
	}
	srv := server.New(sys, cfg)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "psserve: %v\n", err)
		os.Exit(1)
	}
	hs := &http.Server{Handler: srv.Handler()}
	fmt.Printf("psserve: serving on http://%s (inflight=%d queue=%d wal=%q sync=%s)\n",
		ln.Addr(), *maxInFlight, *maxQueue, *walPath, *walSync)

	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)

	select {
	case s := <-sig:
		fmt.Printf("psserve: %s — draining (deadline %s)\n", s, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout+5*time.Second)
		defer cancel()
		if feed != nil {
			feed.Stop()
		}
		if err := srv.Drain(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "psserve: drain: %v\n", err)
		}
		shutCtx, shutCancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer shutCancel()
		_ = hs.Shutdown(shutCtx)
		sn := sys.Metrics().Server
		fmt.Printf("psserve: drained admitted=%d rejected=%d drained=%d group_commits=%d\n",
			sn.Admitted, sn.Rejected, sn.Drained, sn.GroupCommits)
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "psserve: %v\n", err)
			os.Exit(1)
		}
	}
}
