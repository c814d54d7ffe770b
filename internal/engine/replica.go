package engine

// This file is the replica-side apply surface of WAL log shipping
// (internal/replica): the entry points a replication client uses to
// mirror a primary's log into the local WAL and drive the shipped
// committed units through exactly the maintenance path recovery replay
// uses — so a replica's derived state (matcher networks, conflict set)
// is the same function of the same log as the primary's. Promotion is
// the inverse gate: truncate the mirrored log to its last complete
// committed unit, audit, then flip the replica gate off.

import (
	"bytes"
	"errors"
	"fmt"

	"prodsys/internal/metrics"
	"prodsys/internal/relation"
	"prodsys/internal/trace"
	"prodsys/internal/wal"
)

// ErrReplica marks a write rejected because the engine is following a
// primary's WAL feed; writes must go to the primary. Test with
// errors.Is. Unlike ErrReadOnly this state is reversible: promotion
// clears it.
var ErrReplica = errors.New("engine: replica mode (writes go to the primary)")

// SetReplica flips the replica write gate. While set, public write
// entry points fail with ErrReplica and mutation comes only through
// ApplyReplicaTxns / ReplicaBootstrap.
func (e *Engine) SetReplica(on bool) { e.replica.Store(on) }

// IsReplica reports whether the replica write gate is set.
func (e *Engine) IsReplica() bool { return e.replica.Load() }

// ApplyReplicaTxns applies committed units shipped from the primary:
// the raw record bytes are mirrored verbatim into the local WAL (so
// the replica's log stays byte-identical to the primary's, offsets and
// all), then the units run through applyLogged — the same loop as
// recovery replay, including refraction re-marking.
// epoch names the primary log epoch the bytes came from, for tracing.
//
// A local append failure degrades the engine read-only exactly like a
// commit-point append failure on a primary: the replica can no longer
// promise it holds what it acknowledged applying.
func (e *Engine) ApplyReplicaTxns(epoch uint64, raw []byte, txns []wal.Txn) error {
	e.maintMu.Lock()
	defer e.maintMu.Unlock()
	// The apply path is exempt from the replica gate but not from
	// shutdown or degradation.
	if err := e.checkOpen(); err != nil {
		return err
	}
	if l := e.wal; l != nil && len(raw) > 0 {
		if err := l.AppendRaw(raw, len(txns)); err != nil {
			return e.enterReadOnly(err)
		}
	}
	ops, err := e.applyLogged(txns)
	if err != nil {
		return fmt.Errorf("engine: replica apply: %w", err)
	}
	e.stats.Add(metrics.ReplicaTxns, int64(len(txns)))
	e.stats.Add(metrics.ReplicaOps, int64(ops))
	e.stats.Add(metrics.ReplicaBytes, int64(len(raw)))
	if e.tr.Enabled() {
		e.tr.Emit(trace.Event{
			Kind: trace.KindReplicaApply, At: e.tr.Now(),
			CE: -1, ID: epoch, Count: int64(ops),
		})
	}
	return nil
}

// ReplicaBootstrap replaces the replica's whole working memory with a
// primary checkpoint snapshot: every live tuple is retracted through
// normal maintenance (so matcher state empties consistently), the
// conflict set is reset, the dump is restored under its original tuple
// IDs and re-propagated, and the local WAL adopts the snapshot as its
// own checkpoint at the primary's epoch. It returns the number of
// tuples restored.
//
// Refraction state older than the snapshot is not carried by
// checkpoints (same caveat as local recovery from a checkpoint): an
// instantiation that fired before the snapshot may re-enter the
// conflict set eligible. The feed replays post-snapshot fired keys.
func (e *Engine) ReplicaBootstrap(epoch uint64, dump []byte) (int, error) {
	e.maintMu.Lock()
	defer e.maintMu.Unlock()
	if e.closed.Load() {
		return 0, ErrClosed
	}
	for _, name := range e.db.Names() {
		rel, ok := e.db.Get(name)
		if !ok {
			continue
		}
		var ids []relation.TupleID
		rel.Scan(func(id relation.TupleID, _ relation.Tuple) bool {
			ids = append(ids, id)
			return true
		})
		for _, id := range ids {
			if _, err := e.deleteLocked(name, id, nil); err != nil {
				return 0, fmt.Errorf("engine: bootstrap clear: %w", err)
			}
		}
	}
	e.cs.Reset()
	restored, err := e.db.Restore(bytes.NewReader(dump))
	if err != nil {
		return 0, fmt.Errorf("engine: bootstrap restore: %w", err)
	}
	for _, rt := range restored {
		if err := e.matcher.Insert(rt.Class, rt.ID, rt.Tuple); err != nil {
			return 0, fmt.Errorf("engine: bootstrap restore: %w", err)
		}
		if e.wmObserver != nil {
			e.wmObserver(true, rt.Class, rt.ID, rt.Tuple)
		}
	}
	if l := e.wal; l != nil {
		if err := l.AdoptCheckpoint(epoch, dump); err != nil {
			return 0, e.enterReadOnly(err)
		}
	}
	e.stats.Inc(metrics.ReplicaSnapshots)
	return len(restored), nil
}

// ReplicaAdvanceEpoch mirrors a primary checkpoint: the local log
// checkpoints its own (identical) working memory under the primary's
// new epoch, so the mirrored offsets keep lining up. A no-op without a
// WAL.
func (e *Engine) ReplicaAdvanceEpoch(epoch uint64) error {
	e.maintMu.Lock()
	defer e.maintMu.Unlock()
	if e.closed.Load() {
		return ErrClosed
	}
	if e.wal == nil {
		return nil
	}
	if err := e.wal.CheckpointAs(epoch, e.db.Dump); err != nil {
		return e.enterReadOnly(err)
	}
	e.stats.Inc(metrics.ReplicaEpochs)
	return nil
}

// PromoteTruncate is promotion step one: cut the mirrored log back to
// its last complete committed-unit boundary, discarding any partially
// shipped tail that was never applied. It returns the bytes discarded.
func (e *Engine) PromoteTruncate() (int64, error) {
	e.maintMu.Lock()
	defer e.maintMu.Unlock()
	if e.closed.Load() {
		return 0, ErrClosed
	}
	if e.wal == nil {
		return 0, nil
	}
	n, err := e.wal.TruncateTail()
	if err != nil {
		return n, e.enterReadOnly(err)
	}
	return n, nil
}

// PromoteFinish is promotion step two, run after the caller's audit
// gate passed: checkpoint under a bumped epoch — the fencing token
// that outdates the old primary's log — and open the write gate.
func (e *Engine) PromoteFinish() error {
	e.maintMu.Lock()
	if e.closed.Load() {
		e.maintMu.Unlock()
		return ErrClosed
	}
	if l := e.wal; l != nil {
		if err := l.Checkpoint(e.db.Dump); err != nil {
			e.maintMu.Unlock()
			return e.enterReadOnly(err)
		}
	}
	e.maintMu.Unlock()
	e.SetReplica(false)
	e.stats.Inc(metrics.Promotions)
	return nil
}

// WALPosition reports the live epoch and byte size of the attached
// log — the replication feed cursor. ok is false without a WAL. It
// reads under the maintenance lock: ApplyReplicaTxns mirrors the
// shipped bytes before it applies them, and a position that ran ahead
// of working memory and the conflict set would let "caught up" — and a
// promotion decision — be observed on a half-applied unit.
func (e *Engine) WALPosition() (epoch uint64, size int64, ok bool) {
	e.maintMu.Lock()
	defer e.maintMu.Unlock()
	l := e.wal
	if l == nil {
		return 0, 0, false
	}
	epoch, size = l.Position()
	return epoch, size, true
}
