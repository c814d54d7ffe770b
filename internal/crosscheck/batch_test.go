package crosscheck

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"prodsys/internal/audit"
	"prodsys/internal/conflict"
	"prodsys/internal/core"
	"prodsys/internal/engine"
	"prodsys/internal/marker"
	"prodsys/internal/match"
	"prodsys/internal/metrics"
	"prodsys/internal/ptree"
	"prodsys/internal/relation"
	"prodsys/internal/requery"
	"prodsys/internal/rete"
	"prodsys/internal/rules"
)

// This file validates the set-oriented maintenance path: for every
// matcher, a batched engine (ApplyDelta) and a tuple-at-a-time engine
// (Assert/Retract) consume the same random op stream and must hold
// identical conflict sets and WM after every batch.

var batchMatcherKinds = []string{"rete", "rete-shared", "requery", "core", "core-parallel", "marker", "ptree"}

// batchEngine is an engine plus the integrity auditor over its derived
// state.
type batchEngine struct {
	*engine.Engine
	aud *audit.Auditor
}

func newBatchEngine(t *testing.T, src, kind string) *batchEngine {
	t.Helper()
	set, _, err := rules.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	stats := &metrics.Set{}
	db := relation.NewDB(stats)
	if err := rules.BuildDB(set, db); err != nil {
		t.Fatal(err)
	}
	cs := conflict.NewSet(stats)
	var m match.Matcher
	switch kind {
	case "rete":
		m = rete.New(set, cs, stats)
	case "rete-shared":
		m = rete.NewShared(set, cs, stats)
	case "requery":
		m = requery.New(set, db, cs, stats)
	case "core":
		m = core.New(set, db, cs, stats)
	case "core-parallel":
		m = core.New(set, db, cs, stats, core.WithParallelPropagation())
	case "marker":
		m = marker.New(set, db, cs, stats)
	case "ptree":
		m = ptree.NewMatcher(set, db, cs, stats)
	default:
		t.Fatalf("unknown matcher kind %q", kind)
	}
	return &batchEngine{engine.New(set, db, m, stats, engine.Config{}), audit.New(set, db, m, stats)}
}

// runBatchEquivalence feeds one random op stream to a per-tuple engine
// and, batch-by-batch, to a batched engine, comparing conflict set and
// WM at every batch boundary. Deletions may target tuples born earlier
// in the same batch, exercising the net-zero path.
func runBatchEquivalence(t *testing.T, spec randomSpec, kind string, seed int64, batches int) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	seq := newBatchEngine(t, spec.src, kind)
	bat := newBatchEngine(t, spec.src, kind)

	classes := make([]string, 0, len(spec.classes))
	for c := range spec.classes {
		classes = append(classes, c)
	}
	for i := 1; i < len(classes); i++ {
		for j := i; j > 0 && classes[j] < classes[j-1]; j-- {
			classes[j], classes[j-1] = classes[j-1], classes[j]
		}
	}

	live := map[string][]relation.TupleID{}
	for b := 0; b < batches; b++ {
		n := 1 + r.Intn(6)
		ops := make([]engine.DeltaOp, 0, n)
		seqIDs := make([]relation.TupleID, 0, n)
		for i := 0; i < n; i++ {
			class := classes[r.Intn(len(classes))]
			if len(live[class]) > 0 && r.Intn(100) < 35 {
				ids := live[class]
				k := r.Intn(len(ids))
				id := ids[k]
				live[class] = append(ids[:k], ids[k+1:]...)
				if err := seq.Retract(class, id); err != nil {
					t.Fatalf("%s seed=%d batch=%d: sequential retract: %v", kind, seed, b, err)
				}
				ops = append(ops, engine.DeltaOp{Retract: true, Class: class, ID: id})
				seqIDs = append(seqIDs, 0)
				continue
			}
			tup := relation.Tuple(spec.classes[class](r))
			id, err := seq.Assert(class, tup)
			if err != nil {
				t.Fatalf("%s seed=%d batch=%d: sequential assert: %v", kind, seed, b, err)
			}
			live[class] = append(live[class], id)
			ops = append(ops, engine.DeltaOp{Class: class, Tuple: tup.Clone()})
			seqIDs = append(seqIDs, id)
		}
		gotIDs, err := bat.ApplyDelta(ops)
		if err != nil {
			t.Fatalf("%s seed=%d batch=%d: ApplyDelta: %v", kind, seed, b, err)
		}
		// Relation IDs are allocated in op order, so both engines must
		// agree — which also keeps later retract ops aligned.
		if !reflect.DeepEqual(gotIDs, seqIDs) {
			t.Fatalf("%s seed=%d batch=%d: ids = %v, want %v", kind, seed, b, gotIDs, seqIDs)
		}
		ctx := fmt.Sprintf("%s %s seed=%d batch=%d (%d ops)", kind, spec.name, seed, b, n)
		if got, want := bat.ConflictSet().Keys(), seq.ConflictSet().Keys(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: batched conflict set = %v, sequential = %v", ctx, got, want)
		}
		if got, want := bat.SnapshotWM(), seq.SnapshotWM(); got != want {
			t.Fatalf("%s: batched WM:\n%s\nsequential WM:\n%s", ctx, got, want)
		}
	}
	// Equal conflict sets could both be wrong about the matcher's own
	// memories: the batched engine's derived state must audit clean.
	rep, err := bat.aud.Run(audit.Options{})
	if err != nil {
		t.Fatalf("%s %s seed=%d: audit: %v", kind, spec.name, seed, err)
	}
	if !rep.Clean() {
		t.Fatalf("%s %s seed=%d: audit: %d divergences: %v", kind, spec.name, seed, len(rep.Divergences), rep.Divergences)
	}
}

func TestBatchEquivalence(t *testing.T) {
	for _, kind := range batchMatcherKinds {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			for _, spec := range specs {
				spec := spec
				t.Run(spec.name, func(t *testing.T) {
					for seed := int64(1); seed <= 4; seed++ {
						runBatchEquivalence(t, spec, kind, seed, 40)
					}
				})
			}
		})
	}
}

func TestBatchEquivalenceLongChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("long churn")
	}
	for _, kind := range batchMatcherKinds {
		runBatchEquivalence(t, specs[0], kind, 777, 150)
		runBatchEquivalence(t, specs[1], kind, 778, 150)
	}
}
