package engine

import (
	"context"
	"testing"
	"time"

	"prodsys/internal/lock"
	"prodsys/internal/metrics"
)

// retrySrc has exactly one instantiation whose plan X-locks tuple A/1.
const retrySrc = `
(literalize A x)
(p consume (A ^x 1) --> (remove 1))
(A 1)
`

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDeadlockVictimRetried victimizes a transaction once while it
// queues for its lock and checks the concurrent executor retries it to
// success instead of dropping it, with every aborted attempt still
// counted (Result.Aborts must stay in lock-step with the txn_aborts
// counter — the reconciliation invariant of the tracing layer).
func TestDeadlockVictimRetried(t *testing.T) {
	e := harness(t, retrySrc, "core", Config{Workers: 1})
	blocker := lock.TxnID(1000)
	if err := e.locks.Acquire(blocker, lock.TupleTarget("A", 1), lock.Exclusive); err != nil {
		t.Fatal(err)
	}

	// Loading the facts consumed transaction IDs (each fact is a one-op
	// unit); the run's attempts take the next ones.
	first := lock.TxnID(e.nextTxn.Load()) + 1

	type outcome struct {
		res Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := e.RunConcurrentContext(context.Background())
		done <- outcome{res, err}
	}()

	// Attempt 1 (txn first) queues behind the blocker; victimize it.
	waitFor(t, "first attempt to queue", func() bool { return e.stats.Get(metrics.LockWaits) >= 1 })
	e.locks.Abort(first)
	// The retry (txn first+1) queues again; let it through.
	waitFor(t, "retry to queue", func() bool { return e.stats.Get(metrics.LockWaits) >= 2 })
	e.locks.Release(blocker)

	out := <-done
	if out.err != nil {
		t.Fatalf("run: %v", out.err)
	}
	if out.res.Firings != 1 {
		t.Fatalf("firings = %d, want 1 (victim not retried)", out.res.Firings)
	}
	if out.res.Aborts != 1 {
		t.Fatalf("aborts = %d, want 1 (the victimized attempt)", out.res.Aborts)
	}
	if got := e.stats.Get(metrics.TxnRetries); got != 1 {
		t.Fatalf("txn_retries = %d, want 1", got)
	}
	// The counter carries one abort per victimized engine attempt plus
	// one per manual locks.Abort call (the lock manager counts external
	// aborts itself).
	if got, want := e.stats.Get(metrics.TxnAborts), int64(out.res.Aborts)+1; got != want {
		t.Fatalf("txn_aborts = %d, want %d (Result.Aborts %d + 1 manual)", got, want, out.res.Aborts)
	}
	if count := len(e.db.MustGet("A").Select(nil)); count != 0 {
		t.Fatalf("A still has %d tuples after the retried firing", count)
	}
}

// TestRetriesBoundedUnderPersistentVictimization is the livelock
// regression: a transaction victimized on every single attempt must
// exhaust its bounded retries and give up — the run terminates (no
// retry livelock) with every attempt counted — and the instantiation
// survives in the conflict set for a later run.
func TestRetriesBoundedUnderPersistentVictimization(t *testing.T) {
	e := harness(t, retrySrc, "core", Config{Workers: 1})
	blocker := lock.TxnID(1000)
	if err := e.locks.Acquire(blocker, lock.TupleTarget("A", 1), lock.Exclusive); err != nil {
		t.Fatal(err)
	}

	first := lock.TxnID(e.nextTxn.Load()) + 1

	type outcome struct {
		res Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := e.RunConcurrentContext(context.Background())
		done <- outcome{res, err}
	}()

	// Victimize every attempt: the first plus maxTxnRetries retries.
	attempts := maxTxnRetries + 1
	for i := 1; i <= attempts; i++ {
		waitFor(t, "attempt to queue", func() bool { return e.stats.Get(metrics.LockWaits) >= int64(i) })
		e.locks.Abort(first + lock.TxnID(i-1))
	}

	out := <-done
	if out.err != nil {
		t.Fatalf("run: %v", out.err)
	}
	if out.res.Firings != 0 {
		t.Fatalf("firings = %d, want 0", out.res.Firings)
	}
	if out.res.Aborts != attempts {
		t.Fatalf("aborts = %d, want %d (one per victimized attempt)", out.res.Aborts, attempts)
	}
	if got := e.stats.Get(metrics.TxnRetries); got != int64(maxTxnRetries) {
		t.Fatalf("txn_retries = %d, want %d", got, maxTxnRetries)
	}
	// One abort per victimized attempt plus one per manual locks.Abort.
	if got, want := e.stats.Get(metrics.TxnAborts), int64(out.res.Aborts+attempts); got != want {
		t.Fatalf("txn_aborts = %d, want %d (%d attempts + %d manual)", got, want, out.res.Aborts, attempts)
	}

	// The work was deferred, not lost: release the blocker and rerun.
	e.locks.Release(blocker)
	res, err := e.RunConcurrent()
	if err != nil || res.Firings != 1 {
		t.Fatalf("rerun after contention cleared: %+v, %v", res, err)
	}
}

// TestRetryBackoffBounded pins the backoff envelope: positive, jittered
// around an exponential nominal, and never above 1.5× the cap.
func TestRetryBackoffBounded(t *testing.T) {
	e := harness(t, retrySrc, "core", Config{})
	for n := 1; n <= maxTxnRetries+5; n++ {
		for trial := 0; trial < 50; trial++ {
			d := e.retryBackoff(n)
			if d <= 0 {
				t.Fatalf("backoff(%d) = %v, not positive", n, d)
			}
			if d > txnBackoffCap+txnBackoffCap/2 {
				t.Fatalf("backoff(%d) = %v exceeds cap envelope", n, d)
			}
		}
	}
}

// TestRetryBackoffSeeded pins reproducibility: two engines built with
// the same Config.Seed draw identical jitter schedules, and a different
// seed diverges — the per-engine RNG replaced the process-global one.
func TestRetryBackoffSeeded(t *testing.T) {
	sched := func(seed int64) []time.Duration {
		e := harness(t, retrySrc, "core", Config{Seed: seed})
		out := make([]time.Duration, 0, maxTxnRetries)
		for n := 1; n <= maxTxnRetries; n++ {
			out = append(out, e.retryBackoff(n))
		}
		return out
	}
	a, b, c := sched(42), sched(42), sched(43)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("attempt %d: same seed diverged: %v vs %v", i+1, a[i], b[i])
		}
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 42 and 43 produced identical schedules")
	}
}
