package quel

import (
	"errors"
	"path/filepath"
	"testing"
	"time"

	"prodsys/internal/engine"
	"prodsys/internal/lock"
	"prodsys/internal/match"
	"prodsys/internal/metrics"
	"prodsys/internal/relation"
	"prodsys/internal/wal"
)

// These tests pin QUEL writes to the engine's commit pipeline: every
// append/delete/replace is one engine delta, so it is locked, panic
// contained and logged exactly like an API batch.

// attachWAL opens a group-sync log in a temp dir and attaches it.
func (f *fixture) attachWAL(t *testing.T) {
	t.Helper()
	l, _, err := wal.Open(filepath.Join(t.TempDir(), "wm.wal"), wal.Options{Policy: wal.SyncGroup, Stats: f.stats})
	if err != nil {
		t.Fatal(err)
	}
	f.eng.SetWAL(l)
	t.Cleanup(func() { f.eng.Shutdown() })
}

func TestStatementIsOneLoggedUnit(t *testing.T) {
	f := setup(t, nil)
	f.attachWAL(t)
	for _, name := range []string{"Ann", "Bob", "Cy", "Di"} {
		f.mustExec(t, `append to Emp (name = "`+name+`", salary = 500, dno = 1)`)
	}
	units := func() (appends, waits int64) {
		return f.stats.Get(metrics.WALAppends), f.stats.Get(metrics.WALGroupWaiters)
	}
	a0, w0 := units()
	if a0 != 4 {
		t.Fatalf("wal_appends after 4 appends = %d, want 4", a0)
	}
	if r := f.mustExec(t, `replace E (salary = 900) where E.dno = 1`); r.Affected != 4 {
		t.Fatalf("replace affected = %d, want 4", r.Affected)
	}
	a1, w1 := units()
	if a1-a0 != 1 || w1-w0 != 1 {
		t.Fatalf("4-row replace: %d log units, %d durable waits; want 1 and 1", a1-a0, w1-w0)
	}
	if r := f.mustExec(t, `delete E where E.salary = 900`); r.Affected != 4 {
		t.Fatalf("delete affected = %d, want 4", r.Affected)
	}
	a2, w2 := units()
	if a2-a1 != 1 || w2-w1 != 1 {
		t.Fatalf("4-row delete: %d log units, %d durable waits; want 1 and 1", a2-a1, w2-w1)
	}
}

// panicOnInsert panics on the first maintenance insert into class.
type panicOnInsert struct {
	match.Matcher
	class string
	fired bool
}

func (p *panicOnInsert) Insert(class string, id relation.TupleID, t relation.Tuple) error {
	if class == p.class && !p.fired {
		p.fired = true
		panic("injected maintenance panic")
	}
	return p.Matcher.Insert(class, id, t)
}

func TestAppendPanicContained(t *testing.T) {
	f := setupWrapped(t, nil, func(m match.Matcher) match.Matcher {
		return &panicOnInsert{Matcher: m, class: "Emp"}
	})
	f.attachWAL(t)
	_, err := f.in.Exec(`append to Emp (name = "Ann", salary = 500, dno = 1)`)
	if !errors.Is(err, engine.ErrRulePanic) {
		t.Fatalf("append error = %v, want ErrRulePanic", err)
	}
	if n := f.eng.DB().MustGet("Emp").Len(); n != 0 {
		t.Fatalf("Emp holds %d tuples, want 0 (panicked append rolled back)", n)
	}
	if got := f.stats.Get(metrics.WALAppends); got != 0 {
		t.Fatalf("wal_appends = %d, want 0 (a panicked statement is never logged)", got)
	}
	// The next statement must not find the maintenance mutex held.
	done := make(chan error, 1)
	go func() {
		_, err := f.in.Exec(`append to Emp (name = "Bob", salary = 500, dno = 1)`)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("post-panic append failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("post-panic append deadlocked on the maintenance mutex")
	}
}

// TestWritesTakeRelationLocks holds the relation X-lock a concurrent
// firing transaction would hold: a QUEL write must queue behind it, as
// a Batch does, and complete once it is released.
func TestWritesTakeRelationLocks(t *testing.T) {
	f := setup(t, nil)
	holder := lock.TxnID(1 << 30)
	if err := f.eng.Locks().Acquire(holder, lock.RelationTarget("Emp"), lock.Exclusive); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := f.in.Exec(`append to Emp (name = "Ann", salary = 500, dno = 1)`)
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for f.stats.Get(metrics.LockWaits) < 1 {
		select {
		case err := <-done:
			t.Fatalf("append finished (err=%v) without waiting for the Emp relation lock", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("append never queued for the Emp relation lock")
		}
		time.Sleep(time.Millisecond)
	}
	if n := f.eng.DB().MustGet("Emp").Len(); n != 0 {
		t.Fatalf("append wrote %d tuples while the relation was X-locked", n)
	}
	f.eng.Locks().Release(holder)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
