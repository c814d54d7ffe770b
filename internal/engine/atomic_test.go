package engine

import (
	"strings"
	"sync"
	"testing"

	"prodsys/internal/relation"
	"prodsys/internal/value"
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
