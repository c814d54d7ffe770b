package prodsys

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"prodsys/internal/faultfs"
)

const durableSrc = `
(literalize Task id)
(literalize Done id)
(p fin (Task ^id <i>) --> (remove 1) (make Done ^id <i>))
(Task 1)
(Task 2)
`

func durableOpts(path string) Options {
	return Options{Out: discard{}, WALPath: path, Matcher: MatcherRete}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// TestDurableReopenRealFS exercises the default OS filesystem: run to
// quiescence, close, reopen — the second system recovers the final
// working memory from the log without re-reading the program's facts.
func TestDurableReopenRealFS(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wm.wal")
	sys, err := Load(durableSrc, durableOpts(path))
	if err != nil {
		t.Fatal(err)
	}
	if info := sys.Recovery(); info.Recovered {
		t.Fatalf("fresh open reported recovery: %+v", info)
	}
	res, err := sys.Run()
	if err != nil || res.Firings != 2 {
		t.Fatalf("run: %+v, %v", res, err)
	}
	want := sys.WM()
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	sys2, err := Load(durableSrc, durableOpts(path))
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Close()
	if got := sys2.WM(); got != want {
		t.Fatalf("recovered WM:\n%s\nwant:\n%s", got, want)
	}
	info := sys2.Recovery()
	// 2 initial facts + 2 firings = 4 committed units.
	if !info.Recovered || info.Txns != 4 || info.TornTail || info.Elapsed <= 0 {
		t.Fatalf("recovery info: %+v", info)
	}
	st := sys2.Metrics().Durability
	if st.RecoveryTxns != 4 || st.RecoveryOps == 0 || st.RecoveryNanos <= 0 {
		t.Fatalf("durability metrics: %+v", st)
	}
	// The program facts must NOT have been re-asserted on top.
	if n := len(sys2.WMClass("Task")); n != 0 {
		t.Fatalf("%d Task tuples after recovery, want 0", n)
	}
	if n := len(sys2.WMClass("Done")); n != 2 {
		t.Fatalf("%d Done tuples after recovery, want 2", n)
	}
}

// TestRefractionSurvivesRecovery reopens a system whose only rule has
// already fired without consuming its trigger: replay must restore the
// refraction mark so the rule does not fire again.
func TestRefractionSurvivesRecovery(t *testing.T) {
	src := `
(literalize A x)
(literalize Log x)
(p note (A ^x <v>) --> (make Log ^x <v>))
(A 7)
`
	path := filepath.Join(t.TempDir(), "wm.wal")
	sys, err := Load(src, Options{Out: discard{}, WALPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := sys.Run(); err != nil || res.Firings != 1 {
		t.Fatalf("run: %+v, %v", res, err)
	}
	sys.Close()

	sys2, err := Load(src, Options{Out: discard{}, WALPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Close()
	if res, err := sys2.Run(); err != nil || res.Firings != 0 {
		t.Fatalf("recovered system re-fired: %+v, %v", res, err)
	}
	if n := len(sys2.WMClass("Log")); n != 1 {
		t.Fatalf("%d Log tuples, want 1", n)
	}
}

// TestExplicitCheckpointCompacts takes a checkpoint by hand and checks
// the counter moves, the WAL keeps working, and a reopen sees the
// checkpointed world.
func TestExplicitCheckpointCompacts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wm.wal")
	sys, err := Load(durableSrc, durableOpts(path))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if n := sys.Metrics().Durability.WALCheckpoints; n != 1 {
		t.Fatalf("wal_checkpoints = %d, want 1", n)
	}
	// Post-checkpoint commits land in the fresh log.
	if _, err := sys.Batch().Assert("Task", 9).Commit(); err != nil {
		t.Fatal(err)
	}
	want := sys.WM()
	sys.Close()

	if _, err := os.Stat(path + ".ckpt"); err != nil {
		t.Fatalf("checkpoint file: %v", err)
	}
	sys2, err := Load(durableSrc, durableOpts(path))
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Close()
	info := sys2.Recovery()
	if !info.Checkpoint || info.Tuples == 0 || info.Txns != 1 {
		t.Fatalf("recovery info after compaction: %+v", info)
	}
	if got := sys2.WM(); got != want {
		t.Fatalf("recovered WM:\n%s\nwant:\n%s", got, want)
	}
}

// TestWALSyncModeValidation rejects a sync mode outside WALSyncModes.
func TestWALSyncModeValidation(t *testing.T) {
	opts := Options{Out: discard{}, WALFS: faultfs.New(), WALPath: "wm.wal", WALSync: "sometimes"}
	if _, err := Load(durableSrc, opts); err == nil || !strings.Contains(err.Error(), "sync mode") {
		t.Fatalf("bad sync mode accepted: %v", err)
	}
	for _, m := range WALSyncModes() {
		fs := faultfs.New()
		sys, err := Load(durableSrc, Options{Out: discard{}, WALFS: fs, WALPath: "wm.wal", WALSync: m})
		if err != nil {
			t.Fatalf("mode %q: %v", m, err)
		}
		if err := sys.Close(); err != nil {
			t.Fatalf("mode %q close: %v", m, err)
		}
	}
}

// TestCloseIsIdempotent double-closes and checks durable calls fail
// cleanly afterwards instead of panicking.
func TestCloseIsIdempotent(t *testing.T) {
	fs := faultfs.New()
	sys, err := Load(durableSrc, Options{Out: discard{}, WALFS: fs, WALPath: "wm.wal"})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := sys.SyncWAL(); err != nil {
		t.Fatalf("sync after close should be a no-op without a WAL: %v", err)
	}
	// Committing after close fails (the log is gone) rather than
	// silently dropping durability.
	if _, err := sys.Batch().Assert("Task", 9).Commit(); err == nil {
		t.Fatal("commit after close succeeded silently")
	}
}

// TestNoWALIsInert checks the durable surface stays callable — and
// cheap — when durability is off.
func TestNoWALIsInert(t *testing.T) {
	sys, err := Load(durableSrc, Options{Out: discard{}})
	if err != nil {
		t.Fatal(err)
	}
	if info := sys.Recovery(); info.Recovered || info.Checkpoint {
		t.Fatalf("recovery info without a WAL: %+v", info)
	}
	if err := sys.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	if st := sys.Metrics().Durability; st.WALAppends != 0 {
		t.Fatalf("WAL appends without a WAL: %+v", st)
	}
}

// TestAutomaticCheckpointEvery lets the unit counter trigger
// compaction and verifies reopen sees checkpoint + tail.
func TestAutomaticCheckpointEvery(t *testing.T) {
	fs := faultfs.New()
	opts := Options{Out: discard{}, WALFS: fs, WALPath: "wm.wal", WALCheckpointEvery: 3}
	sys, err := Load(durableSrc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if n := sys.Metrics().Durability.WALCheckpoints; n == 0 {
		t.Fatal("no automatic checkpoint after passing the unit threshold")
	}
	want := sys.WM()
	sys.Close()

	sys2, err := Load(durableSrc, Options{Out: discard{}, WALFS: faultfs.FromSnapshot(fs.Snapshot()), WALPath: "wm.wal"})
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Close()
	if got := sys2.WM(); got != want {
		t.Fatalf("recovered WM:\n%s\nwant:\n%s", got, want)
	}
	if !sys2.Recovery().Checkpoint {
		t.Fatalf("recovery skipped the checkpoint: %+v", sys2.Recovery())
	}
}

// TestWALAppendFailureSurfaces: when the disk dies mid-run, the commit
// that could not be logged must return the error.
func TestWALAppendFailureSurfaces(t *testing.T) {
	fs := faultfs.New()
	sys, err := Load(durableSrc, Options{Out: discard{}, WALFS: fs, WALPath: "wm.wal"})
	if err != nil {
		t.Fatal(err)
	}
	fs.FailWrite(1, 0, true)
	if _, err := sys.Batch().Assert("Task", 9).Commit(); !errors.Is(err, faultfs.ErrCrashed) {
		t.Fatalf("commit on crashed disk: %v", err)
	}
}

// orderSrc has two rules on one class, so a two-tuple batch leaves four
// instantiations whose agenda order decides the output.
const orderSrc = `
(literalize A x)
(p r1 (A ^x <x>) --> (write r1 <x>))
(p r2 (A ^x <x>) --> (write r2 <x>))
`

// orderRun loads orderSrc with opts, attaches views when given, commits
// A(1), A(2) as one batch when batch is set, runs to quiescence when run
// is set, closes the system and returns what it wrote.
func orderRun(t *testing.T, opts Options, views string, batch, run bool) string {
	t.Helper()
	var out strings.Builder
	opts.Out = &out
	sys, err := Load(orderSrc, opts)
	if err == nil && views != "" {
		_, err = sys.AttachViews(views)
	}
	if err == nil && batch {
		_, err = sys.Batch().Assert("A", 1).Assert("A", 2).Commit()
	}
	if err == nil && run {
		_, err = sys.Run()
	}
	if err == nil {
		err = sys.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// TestRecoveryKeepsFiringOrder: a system recovered from its log fires
// in the uncrashed order under every matcher — replay maintains each
// logged unit's net delta once, as its commit did. Recovery from a
// checkpoint restores in dump order instead and is not covered here.
func TestRecoveryKeepsFiringOrder(t *testing.T) {
	for _, m := range Matchers() {
		want := orderRun(t, Options{Matcher: m}, "", true, true)
		path := filepath.Join(t.TempDir(), "wm.wal")
		orderRun(t, Options{Matcher: m, WALPath: path}, "", true, false)
		if got := orderRun(t, Options{Matcher: m, WALPath: path}, "", false, true); got != want {
			t.Errorf("%s: recovered run wrote\n%s\nuncrashed run wrote\n%s", m, got, want)
		}
	}
}
