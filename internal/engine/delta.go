package engine

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"prodsys/internal/lock"
	"prodsys/internal/match"
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

// ApplyDelta applies a batch of WM changes set-at-a-time: relation-level
// write locks are acquired once per touched class for the whole batch,
// every WM mutation executes in op order, and match maintenance runs once
// per (class, direction) group through the matchers' batch paths —
// deletions before insertions — feeding the conflict set incrementally.
// The returned IDs are aligned with ops (zero at retraction positions).
//
// A tuple asserted and retracted within the same batch nets out: it never
// reaches the matcher. If a mutation fails mid-batch, the changes already
// applied are still propagated to the matcher (keeping WM and match state
// consistent) and the error is returned.
//
// When a WM observer is attached (materialized views), the batch degrades
// to sequential per-op application under the batch's class locks, because
// incremental view maintenance needs each change joined against the WM
// state preceding it.
func (e *Engine) ApplyDelta(ops []DeltaOp) ([]relation.TupleID, error) {
	return e.ApplyDeltaContext(context.Background(), ops)
}

// ApplyDeltaContext is ApplyDelta honoring ctx: cancellation is
// observed before any lock is acquired; once the batch holds its class
// locks it applies atomically to completion. It only describes the
// batch as a unit — class X-locks plus the op-list body — for commit,
// which logs whatever was applied as one atomic batch record.
func (e *Engine) ApplyDeltaContext(ctx context.Context, ops []DeltaOp) ([]relation.TupleID, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	// One relation-level lock acquisition per class per batch (§5.2's
	// granularity, amortized), in a deterministic global order. Classes
	// are validated before anything mutates.
	u := unit{scope: "batch", txn: lock.TxnID(e.nextTxn.Add(1))}
	for _, op := range ops {
		if _, ok := e.db.Get(op.Class); !ok {
			return nil, fmt.Errorf("engine: %w %s", ErrUnknownClass, op.Class)
		}
		i := sort.Search(len(u.locks), func(i int) bool { return u.locks[i].tgt.Relation >= op.Class })
		if i == len(u.locks) || u.locks[i].tgt.Relation != op.Class {
			u.locks = slices.Insert(u.locks, i, lockReq{tgt: lock.RelationTarget(op.Class), mode: lock.Exclusive})
		}
	}
	var ids []relation.TupleID
	tBatch, applied := e.tr.Now(), false
	u.body = func(rec *opRecorder) (err error) {
		applied = true
		ids, err = e.applyDeltaLocked(ops, rec)
		return err
	}
	err := e.commit(ctx, u)
	if applied && e.tr.Enabled() {
		e.tr.Emit(trace.Event{
			Kind: trace.KindBatchApply, At: tBatch, Dur: e.tr.Now() - tBatch,
			CE: -1, ID: uint64(u.txn), Count: int64(len(ops)),
		})
	}
	return ids, err
}

// applyDeltaLocked is the mutation body of ApplyDeltaContext: maintMu
// and the batch's class locks are held; rec collects the redo record
// for the commit point and the undo ops for panic containment.
func (e *Engine) applyDeltaLocked(ops []DeltaOp, rec *opRecorder) ([]relation.TupleID, error) {
	e.stats.Inc(metrics.SerialOps)
	e.stats.Inc(metrics.BatchDeltas)
	e.stats.Add(metrics.BatchTuples, int64(len(ops)))
	ids := make([]relation.TupleID, len(ops))
	if e.wmObserver != nil {
		// Sequential fallback: views must see one change at a time.
		for i, op := range ops {
			var err error
			if op.Retract {
				_, err = e.deleteLocked(op.Class, op.ID, rec)
			} else {
				ids[i], err = e.insertLocked(op.Class, 0, op.Tuple, rec)
			}
			if err != nil {
				return ids, err
			}
		}
		return ids, nil
	}

	// Set-oriented path: mutate the WM relations first, then run the
	// batch maintenance over the net delta. Maximal runs of consecutive
	// same-class assertions go through the storage backend's bulk
	// InsertBatch — one lock acquisition and one growth decision per
	// run — which is where the columnar backend earns its keep.
	delta := relation.NewDelta()
	type born struct {
		class string
		id    relation.TupleID
	}
	inserted := map[born]bool{} // tuples born in this batch
	var opErr error
	for i := 0; i < len(ops); i++ {
		op := ops[i]
		rel, err := e.db.Lookup(op.Class)
		if err != nil {
			opErr = fmt.Errorf("engine: %w", err)
			break
		}
		if op.Retract {
			t, err := rel.Delete(op.ID)
			if err != nil {
				opErr = err
				break
			}
			e.stats.Inc(metrics.Counter("updates_" + op.Class))
			rec.deleted(op.Class, op.ID, t)
			if inserted[born{op.Class, op.ID}] && delta.CancelInsert(op.Class, op.ID) {
				continue // net zero: born and died within this batch
			}
			delta.AddDelete(op.Class, op.ID, t)
			continue
		}
		// Extend the run of assertions targeting the same class.
		j := i + 1
		for j < len(ops) && !ops[j].Retract && ops[j].Class == op.Class {
			j++
		}
		entries := make([]relation.DeltaEntry, j-i)
		for k := i; k < j; k++ {
			entries[k-i] = relation.DeltaEntry{Tuple: ops[k].Tuple}
		}
		if err := rel.InsertBatch(entries); err != nil {
			opErr = err
			break
		}
		for k, ent := range entries {
			ids[i+k] = ent.ID
			e.stats.Inc(metrics.Counter("updates_" + op.Class))
			rec.inserted(op.Class, ent.ID, ent.Tuple)
			inserted[born{op.Class, ent.ID}] = true
			delta.AddInsert(op.Class, ent.ID, ent.Tuple)
		}
		i = j - 1
	}

	for _, class := range delta.Classes() {
		if len(delta.Deletes(class)) > 0 {
			e.stats.Inc(metrics.BatchPropagations)
		}
		if len(delta.Inserts(class)) > 0 {
			e.stats.Inc(metrics.BatchPropagations)
		}
	}
	if err := match.ApplyDelta(e.matcher, delta); err != nil {
		return ids, err
	}
	return ids, opErr
}
