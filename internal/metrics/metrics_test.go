package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestAddGetInc(t *testing.T) {
	var s Set
	if got := s.Get(TuplesScanned); got != 0 {
		t.Fatalf("fresh counter = %d", got)
	}
	s.Inc(TuplesScanned)
	s.Add(TuplesScanned, 4)
	if got := s.Get(TuplesScanned); got != 5 {
		t.Fatalf("after Inc+Add(4) = %d, want 5", got)
	}
}

func TestNilSetIsSafe(t *testing.T) {
	var s *Set
	s.Inc(TuplesScanned)
	s.Add(JoinsComputed, 10)
	s.Max(SerialOps, 3)
	s.Reset()
	if got := s.Get(TuplesScanned); got != 0 {
		t.Fatalf("nil set Get = %d", got)
	}
	if sn := s.Snapshot(); len(sn) != 0 {
		t.Fatalf("nil set snapshot = %v", sn)
	}
}

func TestMax(t *testing.T) {
	var s Set
	s.Max(SerialOps, 5)
	s.Max(SerialOps, 3)
	if got := s.Get(SerialOps); got != 5 {
		t.Fatalf("Max kept %d, want 5", got)
	}
	s.Max(SerialOps, 9)
	if got := s.Get(SerialOps); got != 9 {
		t.Fatalf("Max kept %d, want 9", got)
	}
}

func TestReset(t *testing.T) {
	var s Set
	s.Add(TxnAborts, 7)
	s.Reset()
	if got := s.Get(TxnAborts); got != 0 {
		t.Fatalf("after reset = %d", got)
	}
}

func TestSnapshotAndDiff(t *testing.T) {
	var s Set
	s.Add(TuplesScanned, 10)
	before := s.Snapshot()
	s.Add(TuplesScanned, 5)
	s.Add(JoinsComputed, 2)
	after := s.Snapshot()
	d := after.Diff(before)
	if d.Get(TuplesScanned) != 5 || d.Get(JoinsComputed) != 2 {
		t.Fatalf("diff = %v", d)
	}
	if len(d) != 2 {
		t.Fatalf("diff has extra entries: %v", d)
	}
	// Diff against a snapshot with a counter absent from sn.
	d2 := Snapshot{}.Diff(Snapshot{TxnAborts.String(): 3})
	if d2.Get(TxnAborts) != -3 {
		t.Fatalf("reverse diff = %v", d2)
	}
}

func TestConcurrentIncrements(t *testing.T) {
	var s Set
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				s.Inc(NodeActivations)
			}
		}()
	}
	wg.Wait()
	if got := s.Get(NodeActivations); got != workers*per {
		t.Fatalf("concurrent total = %d, want %d", got, workers*per)
	}
}

func TestSnapshotString(t *testing.T) {
	var s Set
	s.Add(TuplesScanned, 1)
	s.Add(JoinsComputed, 2)
	out := s.Snapshot().String()
	if !strings.Contains(out, "tuples_scanned=1") || !strings.Contains(out, "joins_computed=2") {
		t.Fatalf("snapshot string = %q", out)
	}
	// Sorted order: joins before tuples.
	if strings.Index(out, "joins") > strings.Index(out, "tuples") {
		t.Fatalf("snapshot not sorted: %q", out)
	}
}

func TestIncDoesNotAllocate(t *testing.T) {
	var s Set
	cell := s.Named("updates_A")
	if n := testing.AllocsPerRun(100, func() {
		s.Inc(Instantiations)
		s.Add(TuplesScanned, 3)
		cell.Inc()
	}); n != 0 {
		t.Fatalf("Inc allocates %v per call", n)
	}
}

func TestCounterNames(t *testing.T) {
	seen := map[string]Counter{}
	for c := range numCounters {
		name := c.String()
		if name == "" {
			t.Errorf("counter %d has no name", c)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("counters %d and %d share the name %q", prev, c, name)
		}
		seen[name] = c
	}
}

// TestNamedCounters covers the counters created by name: a named cell
// reports in snapshots only once written, like every counter.
func TestNamedCounters(t *testing.T) {
	var s Set
	a := s.Named("updates_A")
	if _, ok := s.Snapshot()["updates_A"]; ok {
		t.Fatal("an unwritten named counter appears in the snapshot")
	}
	a.Inc()
	if s.Named("updates_A") != a || s.Snapshot()["updates_A"] != 1 {
		t.Fatalf("named counter: snapshot %v", s.Snapshot())
	}
	s.Reset()
	if v, ok := s.Snapshot()["updates_A"]; !ok || v != 0 {
		t.Fatalf("after Reset: updates_A = %d (present %v), want 0", v, ok)
	}
	var nilSet *Set
	nilSet.Named("x").Inc()
	if nilSet.Named("x").Load() != 0 {
		t.Fatal("nil set's cell counted")
	}
}
