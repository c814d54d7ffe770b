package engine

import (
	"errors"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"prodsys/internal/conflict"
	"prodsys/internal/core"
	"prodsys/internal/match"
	"prodsys/internal/metrics"
	"prodsys/internal/relation"
	"prodsys/internal/rules"
	"prodsys/internal/value"
	"prodsys/internal/wal"
)

// panicOnClass wraps a matcher and panics on the first Insert targeting
// the named class — a fault injected into the maintenance process.
type panicOnClass struct {
	match.Matcher
	class string
	fired atomic.Bool
}

func (p *panicOnClass) Insert(class string, id relation.TupleID, t relation.Tuple) error {
	if class == p.class && p.fired.CompareAndSwap(false, true) {
		panic("injected maintenance panic")
	}
	return p.Matcher.Insert(class, id, t)
}

// InsertBatch routes batches through Insert, so a batched maintenance
// pass hits the injected panic too.
func (p *panicOnClass) InsertBatch(class string, entries []relation.DeltaEntry) error {
	for _, e := range entries {
		if err := p.Insert(class, e.ID, e.Tuple); err != nil {
			return err
		}
	}
	return nil
}

const panicSrc = `
(literalize A v)
(literalize B v)

(p mk
    (A ^v <x>)
  -->
    (make B ^v <x>)
    (remove 1))

(A 1)
(A 2)
`

// panicHarness builds an engine whose matcher panics on the first
// maintenance insert into class B.
func panicHarness(t *testing.T, cfg Config) (*Engine, *metrics.Set) {
	t.Helper()
	set, prog, err := rules.CompileSource(panicSrc)
	if err != nil {
		t.Fatal(err)
	}
	stats := &metrics.Set{}
	db := relation.NewDB(stats)
	if err := rules.BuildDB(set, db); err != nil {
		t.Fatal(err)
	}
	cs := conflict.NewSet(set, stats)
	m := &panicOnClass{Matcher: core.New(set, db, cs, stats), class: "B"}
	e := New(set, db, m, stats, cfg)
	if err := e.LoadFacts(prog); err != nil {
		t.Fatal(err)
	}
	return e, stats
}

// countTuples scans one class.
func countTuples(t *testing.T, e *Engine, class string) int {
	t.Helper()
	rel, ok := e.DB().Get(class)
	if !ok {
		t.Fatalf("class %s missing", class)
	}
	n := 0
	rel.Scan(func(relation.TupleID, relation.Tuple) bool { n++; return true })
	return n
}

func TestSerialPanicContained(t *testing.T) {
	e, stats := panicHarness(t, Config{})
	res, err := e.RunSerial()
	if err != nil {
		t.Fatalf("serial run failed: %v", err)
	}
	if res.Panics != 1 {
		t.Fatalf("Panics = %d, want 1", res.Panics)
	}
	if res.Firings != 1 {
		t.Fatalf("Firings = %d, want 1 (the non-panicking instantiation)", res.Firings)
	}
	// The panicked firing rolled back: its A tuple survives, its B make
	// was undone; the quarantined instantiation never refires.
	if got := countTuples(t, e, "A"); got != 1 {
		t.Fatalf("A count = %d, want 1 (panicked firing rolled back)", got)
	}
	if got := countTuples(t, e, "B"); got != 1 {
		t.Fatalf("B count = %d, want 1 (only the clean firing committed)", got)
	}
	if got := stats.Get(metrics.PanicsContained); got != 1 {
		t.Fatalf("panics_contained = %d, want 1", got)
	}
	// The engine keeps serving: the maintenance mutex is free.
	if _, err := e.ApplyDelta([]DeltaOp{{Class: "A", Tuple: relation.Tuple{value.OfInt(9)}}}); err != nil {
		t.Fatalf("post-panic batch failed: %v", err)
	}
}

func TestConcurrentPanicContained(t *testing.T) {
	e, stats := panicHarness(t, Config{Workers: 4})
	res, err := e.RunConcurrent()
	if err != nil {
		t.Fatalf("concurrent run failed: %v", err)
	}
	if res.Panics != 1 {
		t.Fatalf("Panics = %d, want 1", res.Panics)
	}
	if got := countTuples(t, e, "B"); got != 1 {
		t.Fatalf("B count = %d, want 1", got)
	}
	if got := stats.Get(metrics.PanicsContained); got != 1 {
		t.Fatalf("panics_contained = %d, want 1", got)
	}
	if _, err := e.ApplyDelta([]DeltaOp{{Class: "A", Tuple: relation.Tuple{value.OfInt(9)}}}); err != nil {
		t.Fatalf("post-panic batch failed: %v", err)
	}
}

func TestBatchPanicContained(t *testing.T) {
	e, stats := panicHarness(t, Config{})
	// The batch's maintenance panics on the first B insert: the whole
	// batch rolls back and the error classifies as a contained panic.
	_, err := e.ApplyDelta([]DeltaOp{
		{Class: "B", Tuple: relation.Tuple{value.OfInt(7)}},
		{Class: "B", Tuple: relation.Tuple{value.OfInt(8)}},
	})
	if !errors.Is(err, ErrRulePanic) {
		t.Fatalf("batch error = %v, want ErrRulePanic", err)
	}
	if got := countTuples(t, e, "B"); got != 0 {
		t.Fatalf("B count = %d, want 0 (panicked batch rolled back)", got)
	}
	if got := stats.Get(metrics.PanicsContained); got != 1 {
		t.Fatalf("panics_contained = %d, want 1", got)
	}
	// The fault was one-shot; the retried batch commits.
	ids, err := e.ApplyDelta([]DeltaOp{{Class: "B", Tuple: relation.Tuple{value.OfInt(7)}}})
	if err != nil || len(ids) != 1 {
		t.Fatalf("retried batch: ids=%v err=%v", ids, err)
	}
	if got := countTuples(t, e, "B"); got != 1 {
		t.Fatalf("B count = %d, want 1 after retry", got)
	}
}

// TestAssertPanicContained pins the direct write path to the commit
// pipeline's containment: a maintenance panic under engine.Assert
// surfaces as ErrRulePanic, working memory is rolled back, nothing
// reaches the WAL, and the maintenance mutex is free for the next
// write (it used to stay locked forever).
func TestAssertPanicContained(t *testing.T) {
	e, stats := panicHarness(t, Config{})
	l, _, err := wal.Open(filepath.Join(t.TempDir(), "wm.wal"), wal.Options{Stats: stats})
	if err != nil {
		t.Fatal(err)
	}
	e.SetWAL(l)
	defer e.Shutdown()

	if _, err := e.Assert("B", relation.Tuple{value.OfInt(7)}); !errors.Is(err, ErrRulePanic) {
		t.Fatalf("Assert error = %v, want ErrRulePanic", err)
	}
	if got := countTuples(t, e, "B"); got != 0 {
		t.Fatalf("B count = %d, want 0 (panicked assert rolled back)", got)
	}
	if got := stats.Get(metrics.WALAppends); got != 0 {
		t.Fatalf("wal_appends = %d, want 0 (a panicked unit is never logged)", got)
	}
	// The fault was one-shot; the next write must not find maintMu held.
	done := make(chan error, 1)
	go func() {
		_, err := e.Assert("B", relation.Tuple{value.OfInt(8)})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("post-panic Assert failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("post-panic Assert deadlocked on the maintenance mutex")
	}
	if got := stats.Get(metrics.WALAppends); got != 1 {
		t.Fatalf("wal_appends = %d, want 1", got)
	}
}
