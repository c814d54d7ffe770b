package crosscheck

import (
	"fmt"
	"os"
	"testing"

	"prodsys/internal/engine"
	"prodsys/internal/relation"
	"prodsys/internal/value"
)

// TestFiredKeysPrunedAcrossWaves pins the refraction memory bound: a
// fired key is dropped once a tuple it was built on is deleted, so
// after any number of jobshop waves the marks held never exceed the
// live conflict set — under every matcher and both executors, which
// must keep firing exactly five rules per order.
func TestFiredKeysPrunedAcrossWaves(t *testing.T) {
	// The benchmark's jobshop-fire program: every order fires five rules
	// and the last removes the order with everything it made, so working
	// memory returns to the four stations after each wave.
	src, err := os.ReadFile("../../benchmark/programs/jobshop.ops")
	if err != nil {
		t.Fatal(err)
	}
	const orders = 1
	for _, kind := range batchMatcherKinds {
		for _, concurrent := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/concurrent=%v", kind, concurrent), func(t *testing.T) {
				waves := 2000
				if concurrent {
					waves = 500 // a round of worker goroutines per firing: same marks, slower waves
				}
				if testing.Short() {
					waves /= 10
				}
				e := newBatchEngine(t, string(src), kind)
				for _, name := range []string{"cutter", "drill", "polisher", "packer"} {
					if _, err := e.Assert("Station", relation.Tuple{value.OfSym(name), value.OfSym("yes")}); err != nil {
						t.Fatal(err)
					}
				}
				for w := 0; w < waves; w++ {
					ops := make([]engine.DeltaOp, orders)
					for i := range ops {
						ops[i] = engine.DeltaOp{Class: "Order", Tuple: relation.Tuple{value.OfInt(int64(w*orders + i)), value.OfSym("new")}}
					}
					if _, err := e.ApplyDelta(ops); err != nil {
						t.Fatal(err)
					}
					run := e.RunSerial
					if concurrent {
						run = e.RunConcurrent
					}
					res, err := run()
					if err != nil {
						t.Fatal(err)
					}
					if res.Firings != 5*orders {
						t.Fatalf("wave %d: %d firings, want %d", w, res.Firings, 5*orders)
					}
					cs := e.ConflictSet()
					if fired, live := cs.FiredLen(), cs.Len(); fired > live {
						t.Fatalf("wave %d: %d fired keys held over a conflict set of %d", w, fired, live)
					}
				}
				if n := e.DB().MustGet("Order").Len() + e.DB().MustGet("Log").Len(); n != 0 {
					t.Fatalf("%d orders and log tuples left after the last wave", n)
				}
			})
		}
	}
}

// TestBlockedKeyStaysRefracted is the other half of the pruning rule: a
// fired instantiation that a negated condition element blocks and later
// unblocks lost no supporting tuple, so it must not fire again.
func TestBlockedKeyStaysRefracted(t *testing.T) {
	const src = `
(literalize Job id)
(literalize Done id)
(p finish (Job ^id <j>) - (Done ^id <j>) --> (make Done ^id <j>))
`
	for _, kind := range batchMatcherKinds {
		t.Run(kind, func(t *testing.T) {
			e := newBatchEngine(t, src, kind)
			if _, err := e.Assert("Job", relation.Tuple{value.OfInt(7)}); err != nil {
				t.Fatal(err)
			}
			if res, err := e.RunSerial(); err != nil || res.Firings != 1 {
				t.Fatalf("first run: %d firings, err %v; want 1", res.Firings, err)
			}
			var done []relation.TupleID
			e.DB().MustGet("Done").Scan(func(id relation.TupleID, _ relation.Tuple) bool {
				done = append(done, id)
				return true
			})
			if len(done) != 1 {
				t.Fatalf("Done holds %d tuples, want 1", len(done))
			}
			if err := e.Retract("Done", done[0]); err != nil {
				t.Fatal(err)
			}
			if !e.ConflictSet().Contains("finish|1|0") {
				t.Fatalf("unblocked instantiation not re-derived: %v", e.ConflictSet().Keys())
			}
			if res, err := e.RunSerial(); err != nil || res.Firings != 0 {
				t.Fatalf("second run: %d firings, err %v; want 0 (refraction)", res.Firings, err)
			}
		})
	}
}
