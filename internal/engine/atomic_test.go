package engine

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"prodsys/internal/conflict"
	"prodsys/internal/matchers"
	"prodsys/internal/metrics"
	"prodsys/internal/relation"
	"prodsys/internal/value"
	"prodsys/internal/wal"
)

// stagesSrc walks every Tok through five stages, one modify per firing.
func stagesSrc(toks int) string {
	var b strings.Builder
	b.WriteString(`
(literalize Tok id stage)
(p s0 (Tok ^id <i> ^stage s0) --> (modify 1 ^stage s1))
(p s1 (Tok ^id <i> ^stage s1) --> (modify 1 ^stage s2))
(p s2 (Tok ^id <i> ^stage s2) --> (modify 1 ^stage s3))
(p s3 (Tok ^id <i> ^stage s3) --> (modify 1 ^stage s4))
(p s4 (Tok ^id <i> ^stage s4) --> (modify 1 ^stage s5))
`)
	for i := 0; i < toks; i++ {
		b.WriteString("(Tok " + value.OfInt(int64(i)).String() + " s0)\n")
	}
	return b.String()
}

// TestSerialFiringAtomicAgainstCommits runs the serial executor while a
// second goroutine commits deltas on the class the firings modify. A
// firing is one unit under the maintenance mutex, so a quiescent
// snapshot never sees the retract half of a modify without its assert
// half: the number of staged tokens is constant. (Firings used to take
// the mutex per RHS op, letting a commit — or this snapshot — land in
// the middle of a modify.)
func TestSerialFiringAtomicAgainstCommits(t *testing.T) {
	const toks = 300
	e := harness(t, stagesSrc(toks), "core", Config{})
	rel := e.DB().MustGet("Tok")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		noise := relation.Tuple{value.OfInt(-1), value.OfSym("noise")}
		for {
			select {
			case <-stop:
				return
			default:
			}
			ids, err := e.ApplyDelta([]DeltaOp{{Class: "Tok", Tuple: noise}})
			if err != nil {
				t.Errorf("concurrent assert: %v", err)
				return
			}
			staged := 0
			e.WithMaintenanceLock(func() {
				rel.Scan(func(_ relation.TupleID, tu relation.Tuple) bool {
					if tu[1].AsString() != "noise" {
						staged++
					}
					return true
				})
			})
			if staged != toks {
				t.Errorf("snapshot saw %d staged tokens, want %d: a modify was split", staged, toks)
				return
			}
			if _, err := e.ApplyDelta([]DeltaOp{{Retract: true, Class: "Tok", ID: ids[0]}}); err != nil {
				t.Errorf("concurrent retract: %v", err)
				return
			}
		}
	}()

	res, err := e.RunSerial()
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Firings != 5*toks {
		t.Fatalf("firings = %d, want %d", res.Firings, 5*toks)
	}
}

// staleSrc has one instantiation, once|<A 7>|0, which a retract of A 7
// or an assert of its blocker B 7 invalidates.
const staleSrc = `
(literalize A x)
(literalize B x)
(literalize Log x)
(p once (A ^x <v>) - (B ^x <v>) --> (make Log ^x <v>))
(A 7)
`

// TestStaleFiringAppliesNothing selects an instantiation, then commits a
// delta that invalidates it before its firing runs — the window a
// concurrent Batch.Commit opens between Select and fire. The firing must
// abort with ErrStale inside the maintenance section: no RHS effect and
// no WAL append. It covers a firing outside rounds (Fire) and a round
// member's transaction (a txn id, counted by endTxn), on every matcher.
func TestStaleFiringAppliesNothing(t *testing.T) {
	invalidations := []struct {
		name string
		ops  func(in *conflict.Instantiation) []DeltaOp
	}{
		{"retract", func(in *conflict.Instantiation) []DeltaOp {
			return []DeltaOp{{Retract: true, Class: "A", ID: in.TupleIDs[0]}}
		}},
		{"blocker", func(*conflict.Instantiation) []DeltaOp {
			return []DeltaOp{{Class: "B", Tuple: relation.Tuple{value.OfInt(7)}}}
		}},
	}
	paths := []struct {
		name string
		fire func(e *Engine, in *conflict.Instantiation) error
	}{
		{"serial", func(e *Engine, in *conflict.Instantiation) error {
			_, err := e.Fire(in)
			return err
		}},
		{"concurrent", func(e *Engine, in *conflict.Instantiation) error {
			txn := e.nextTxn.Add(1)
			_, l, seq, err := e.fire(context.Background(), in, txn)
			e.endTxn(in, txn, err)
			return e.durable(l, seq, err)
		}},
	}
	for _, m := range matchers.Names() {
		for _, inv := range invalidations {
			for _, path := range paths {
				t.Run(m+"/"+inv.name+"/"+path.name, func(t *testing.T) {
					e := harness(t, staleSrc, m, Config{})
					l, _, err := wal.Open(filepath.Join(t.TempDir(), "wm.wal"), wal.Options{Stats: e.stats})
					if err != nil {
						t.Fatal(err)
					}
					e.SetWAL(l)
					defer e.Shutdown()
					in := e.ConflictSet().Select(conflict.FIFO{})
					if in == nil {
						t.Fatal("no instantiation to select")
					}
					if _, err := e.ApplyDelta(inv.ops(in)); err != nil {
						t.Fatal(err)
					}
					appends := e.stats.Get(metrics.WALAppends)
					if err := path.fire(e, in); !errors.Is(err, ErrStale) {
						t.Fatalf("firing after the invalidating commit: err = %v, want ErrStale", err)
					}
					if n := e.DB().MustGet("Log").Len(); n != 0 {
						t.Fatalf("stale firing made %d Log tuples, want 0", n)
					}
					if got := e.stats.Get(metrics.WALAppends); got != appends {
						t.Fatalf("stale firing appended %d WAL units, want 0", got-appends)
					}
				})
			}
		}
	}
}
