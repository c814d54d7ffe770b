package prodsys

// Server-mode robustness at the library level: idempotent/concurrent
// Close, WAL group commit coalescing, and context cancellation leaving
// a clean, auditable system. The HTTP layer's own tests live in
// internal/server.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"prodsys/internal/faultfs"
	"prodsys/internal/workload"
)

// TestCloseIdempotentConcurrent: double Close, concurrent Close, and
// Close racing in-flight batches must not panic; each racing commit
// either lands before the log closes or fails with ErrClosed.
func TestCloseIdempotentConcurrent(t *testing.T) {
	fs := faultfs.New()
	sys, err := Load(durableSrc, Options{Out: discard{}, WALFS: fs, WALPath: "wm.wal", WALSync: WALSyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_, err := sys.Batch().Assert("Task", c*1000+i).Commit()
				if err != nil && !errors.Is(err, ErrClosed) {
					t.Errorf("racing commit: %v", err)
					return
				}
			}
		}(c)
	}
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := sys.Close(); err != nil {
				t.Errorf("concurrent close: %v", err)
			}
		}()
	}
	wg.Wait()
	if err := sys.Close(); err != nil {
		t.Fatalf("close after close: %v", err)
	}
	// Reads keep working after Close.
	if got := len(sys.WMClass("Task")); got < 0 {
		t.Fatalf("WMClass after close: %d", got)
	}
	if _, err := sys.Assert("Task", 99); !errors.Is(err, ErrClosed) {
		t.Fatalf("write after close: %v", err)
	}
}

// TestCycleSharesOneFsync: under WALSyncGroup the firings of one cycle
// (a §5.2 round of 64 independent tasks, or a set-at-a-time cycle over
// them) share one durable wait, so the run issues at most one group
// fsync per cycle however many firings it logs.
func TestCycleSharesOneFsync(t *testing.T) {
	const kinds, tasks = 8, 64
	for _, mode := range []struct {
		name string
		opts Options
		run  func(*System) (Result, error)
	}{
		{"round", Options{}, (*System).RunConcurrent},
		{"set-at-a-time", Options{SetAtATime: true}, (*System).Run},
	} {
		t.Run(mode.name, func(t *testing.T) {
			opts := mode.opts
			opts.Out, opts.WALFS, opts.WALPath, opts.WALSync = discard{}, faultfs.New(), "wm.wal", WALSyncGroup
			sys, err := Load(workload.TaskRules(kinds, false), opts)
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			b := sys.Batch()
			for _, op := range workload.TaskFacts(kinds, false, tasks) {
				b.Assert(op.Class, op.Tuple[0])
			}
			if _, err := b.Commit(); err != nil {
				t.Fatal(err)
			}
			before := sys.Metrics()
			res, err := mode.run(sys)
			if err != nil {
				t.Fatal(err)
			}
			if res.Firings != tasks {
				t.Fatalf("firings = %d, want %d", res.Firings, tasks)
			}
			fsyncs := sys.Metrics().Delta(before).Counters["wal_group_commits"]
			if fsyncs < 1 || fsyncs > int64(res.Cycles) {
				t.Fatalf("%d group fsyncs for %d firings in %d cycles, want one per cycle at most and at least one",
					fsyncs, res.Firings, res.Cycles)
			}
		})
	}
}

// TestGroupCommitCoalesces: N goroutines committing under WALSyncGroup
// must be acknowledged by fewer fsyncs than appends — riders share the
// leader's sync — while every acknowledged commit survives reopen.
func TestGroupCommitCoalesces(t *testing.T) {
	fs := faultfs.New()
	opts := Options{Out: discard{}, WALFS: fs, WALPath: "wm.wal", WALSync: WALSyncGroup}
	sys, err := Load(durableSrc, opts)
	if err != nil {
		t.Fatal(err)
	}
	const clients, each = 8, 25
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := sys.Batch().Assert("Task", c*1000+i).Commit(); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	sn := sys.Metrics()
	if sn.Server.GroupCommits == 0 {
		t.Fatal("no group commits recorded")
	}
	// On the instant in-memory FS every committer tends to become its
	// own leader, so coalescing is opportunistic here; the hard bound
	// is that group mode never syncs more than it appends. The
	// deterministic many-appends-one-sync case is covered in
	// internal/wal's group commit test.
	if sn.Durability.WALSyncs > sn.Durability.WALAppends {
		t.Fatalf("more syncs than appends: %d > %d (group_commits=%d waiters=%d)",
			sn.Durability.WALSyncs, sn.Durability.WALAppends,
			sn.Server.GroupCommits, sn.Server.GroupWaiters)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Load(durableSrc, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	// durableSrc seeds 2 Tasks of its own on the first load.
	if got := len(re.WMClass("Task")); got != clients*each+2 {
		t.Fatalf("recovered %d Tasks, want %d", got, clients*each+2)
	}
}

// TestBatchContextCancellation: a canceled context aborts the batch
// before any mutation — working memory unchanged, matcher state clean
// under audit, and the same batch succeeds afterwards.
func TestBatchContextCancellation(t *testing.T) {
	fs := faultfs.New()
	sys, err := Load(durableSrc, Options{Out: discard{}, WALFS: fs, WALPath: "wm.wal", WALSync: WALSyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	before := len(sys.WMClass("Task"))

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sys.Batch().Assert("Task", 77).CommitContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled commit: %v", err)
	}
	if got := len(sys.WMClass("Task")); got != before {
		t.Fatalf("canceled batch mutated WM: %d -> %d", before, got)
	}
	rep, err := sys.Audit(AuditOptions{})
	if err != nil || !rep.Clean() {
		t.Fatalf("audit after cancellation: clean=%v err=%v", rep != nil && rep.Clean(), err)
	}
	if _, err := sys.Batch().Assert("Task", 77).Commit(); err != nil {
		t.Fatalf("commit after cancellation: %v", err)
	}
}

// TestRunCancelMidFlight: cancelling a run mid-flight stops the
// executor with the cancellation error while leaving a transactionally
// consistent, auditable system behind. (TestRunContextCancellation in
// trace_test.go covers the pre-cancelled case.)
func TestRunCancelMidFlight(t *testing.T) {
	// A two-rule ping-pong that never quiesces on its own.
	src := `
(literalize Ping n)
(literalize Pong n)
(p ping (Ping ^n <n>) --> (remove 1) (make Pong ^n <n>))
(p pong (Pong ^n <n>) --> (remove 1) (make Ping ^n <n>))
(Ping 1)
`
	sys, err := Load(src, Options{Out: discard{}, MaxFirings: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := sys.RunContext(ctx)
		done <- err
	}()
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run: %v", err)
	}
	rep, err := sys.Audit(AuditOptions{})
	if err != nil || !rep.Clean() {
		t.Fatalf("audit after canceled run: clean=%v err=%v", rep != nil && rep.Clean(), err)
	}
	// Exactly one token is alive, whichever side it was on.
	if n := len(sys.WMClass("Ping")) + len(sys.WMClass("Pong")); n != 1 {
		t.Fatalf("token count after cancel: %d", n)
	}
}

// TestSeededRetryIsolation: two systems share no RNG state — nothing
// in the engine draws from the package-global rand, and Options.Seed
// seeds only the random strategy — so identical seeds give identical
// behavior.
func TestSeededRetryIsolation(t *testing.T) {
	a, err := Load(durableSrc, Options{Out: discard{}, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Load(durableSrc, Options{Out: discard{}, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	ra, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	if ra.Firings != rb.Firings || fmt.Sprint(a.WMClass("Done")) != fmt.Sprint(b.WMClass("Done")) {
		t.Fatalf("same seed diverged: %+v vs %+v", ra, rb)
	}
}
