package engine

import (
	"context"
	"fmt"
	"time"

	"prodsys/internal/metrics"
	"prodsys/internal/relation"
	"prodsys/internal/trace"
)

// DeltaOp is one operation of a batch submitted to ApplyDelta: an
// assertion carrying a tuple, or a retraction carrying a tuple ID.
type DeltaOp struct {
	// Retract selects between the two operation kinds.
	Retract bool
	// Class names the WM class the operation targets.
	Class string
	// Tuple is the assertion payload (ignored for retractions).
	Tuple relation.Tuple
	// ID is the retraction target (ignored for assertions).
	ID relation.TupleID
}

// ApplyDelta applies a batch of WM changes set-at-a-time as one unit
// inside the maintenance section: every WM mutation executes in op
// order, then the unit's one maintenance pass runs the net delta through
// the matchers' batch paths once per (class, direction) group —
// deletions before insertions — feeding the conflict set incrementally.
// The returned IDs are aligned with ops (zero at retraction positions).
//
// A tuple asserted and retracted within the same batch nets out: it never
// reaches the matcher. If a mutation fails mid-batch, the changes already
// applied are still maintained (keeping WM and match state consistent)
// and the error is returned. Attached views get the same net delta.
func (e *Engine) ApplyDelta(ops []DeltaOp) ([]relation.TupleID, error) {
	return e.ApplyDeltaContext(context.Background(), ops)
}

// ApplyDeltaContext is ApplyDelta honoring ctx: cancellation is
// observed before the batch enters the maintenance section; once inside
// it applies atomically to completion. It only describes the batch as a
// unit — the op-list body — for commit, which logs whatever was applied
// as one atomic batch record.
func (e *Engine) ApplyDeltaContext(ctx context.Context, ops []DeltaOp) ([]relation.TupleID, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	// Classes are validated before anything mutates.
	for _, op := range ops {
		if _, ok := e.db.Get(op.Class); !ok {
			return nil, fmt.Errorf("engine: %w %s", ErrUnknownClass, op.Class)
		}
	}
	u := unit{scope: "batch", txn: e.nextTxn.Add(1)}
	var ids []relation.TupleID
	t0 := time.Duration(0)
	u.body = func(rec *opRecorder) (err error) {
		t0 = e.tr.Now()
		ids, err = e.applyDeltaLocked(ops, rec)
		return err
	}
	if e.tr.Enabled() {
		u.span = func() {
			e.tr.Emit(trace.Event{
				Kind: trace.KindBatchApply, At: t0, Dur: e.tr.Now() - t0,
				CE: -1, ID: u.txn, Count: int64(len(ops)),
			})
		}
	}
	err := e.durable(e.commit(ctx, u))
	return ids, err
}

// applyDeltaLocked is the mutation body of ApplyDeltaContext: maintMu
// is held; rec collects the redo record for the commit point and the
// undo ops for panic containment, and the engine's delta the net change
// runLocked maintains. Maximal runs of consecutive same-class assertions
// go through the relation's bulk InsertBatch — one lock acquisition and
// one batch_inserts count per run.
func (e *Engine) applyDeltaLocked(ops []DeltaOp, rec *opRecorder) ([]relation.TupleID, error) {
	e.stats.Inc(metrics.BatchDeltas)
	e.stats.Add(metrics.BatchTuples, int64(len(ops)))
	ids := make([]relation.TupleID, len(ops))
	for i := 0; i < len(ops); i++ {
		op := ops[i]
		rel, err := e.db.Lookup(op.Class)
		if err != nil {
			return ids, fmt.Errorf("engine: %w", err)
		}
		if op.Retract {
			t, err := rel.Delete(op.ID)
			if err != nil {
				return ids, err
			}
			e.landed(rec, false, op.Class, op.ID, t)
			continue
		}
		j := i + 1
		for j < len(ops) && !ops[j].Retract && ops[j].Class == op.Class {
			j++
		}
		entries := make([]relation.DeltaEntry, j-i)
		for k := i; k < j; k++ {
			entries[k-i] = relation.DeltaEntry{Tuple: ops[k].Tuple}
		}
		if err := rel.InsertBatch(entries); err != nil {
			return ids, err
		}
		for k, ent := range entries {
			ids[i+k] = ent.ID
			e.landed(rec, true, op.Class, ent.ID, ent.Tuple)
		}
		i = j - 1
	}
	return ids, nil
}
