package engine

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"prodsys/internal/relation"
	"prodsys/internal/value"
	"prodsys/internal/wal"
)

const replicaSrc = `
(literalize Item n)
`

// walHarness is harness plus an attached log in a fresh directory.
func walHarness(t *testing.T) (*Engine, string) {
	t.Helper()
	e := harness(t, replicaSrc, "core", Config{})
	path := filepath.Join(t.TempDir(), "wm.wal")
	l, _, err := wal.Open(path, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e.SetWAL(l)
	t.Cleanup(func() { _ = e.Shutdown() })
	return e, path
}

// TestReplicaPositionNeverAheadOfApply holds a replica apply open after
// its first tuple and asserts the position the node reports does not
// move until the whole unit is in working memory: "caught up" must not
// be observable ahead of applied state.
func TestReplicaPositionNeverAheadOfApply(t *testing.T) {
	pri, priPath := walHarness(t)
	ops := make([]DeltaOp, 3)
	for i := range ops {
		ops[i] = DeltaOp{Class: "Item", Tuple: relation.Tuple{value.OfInt(int64(i))}}
	}
	if _, err := pri.ApplyDelta(ops); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(priPath)
	if err != nil {
		t.Fatal(err)
	}
	epoch, size, _ := pri.WALPosition()
	if size != int64(len(data)) {
		t.Fatalf("primary position %d, log file holds %d bytes", size, len(data))
	}

	rep, _ := walHarness(t)
	rep.SetReplica(true)
	_, before, _ := rep.WALPosition()
	raw := data[before:] // both logs start with the same header
	var sc wal.StreamScanner
	txns, err := sc.Feed(raw)
	if err != nil || len(txns) != 1 {
		t.Fatalf("feed: %d units, err %v; want 1", len(txns), err)
	}

	entered, release := make(chan struct{}), make(chan struct{})
	first := true
	rep.SetWMObserver(func(bool, string, relation.TupleID, relation.Tuple) {
		if first {
			first = false
			close(entered)
			<-release
		}
	})
	applied := make(chan error, 1)
	go func() { applied <- rep.ApplyReplicaTxns(epoch, raw, txns) }()
	<-entered

	type pos struct {
		size  int64
		items int
	}
	reported := make(chan pos, 1)
	go func() {
		_, sz, _ := rep.WALPosition()
		reported <- pos{sz, rep.DB().MustGet("Item").Len()}
	}()
	select {
	case p := <-reported:
		close(release)
		t.Fatalf("position %d (was %d) reported with %d of %d tuples applied", p.size, before, p.items, len(ops))
	case <-time.After(100 * time.Millisecond):
		// Still held behind the apply, as it must be.
	}
	close(release)
	if err := <-applied; err != nil {
		t.Fatal(err)
	}
	if p := <-reported; p.size != size || p.items != len(ops) {
		t.Fatalf("after apply: position %d with %d tuples, want %d with %d", p.size, p.items, size, len(ops))
	}
}
