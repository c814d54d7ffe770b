package prodsys

// This file is the replication surface of the system: the apply entry
// points a replica's feed client (internal/replica) drives, the feed
// cursor a primary exposes, and Promote — the audited replica→primary
// transition. The shipping mechanism itself lives in internal/replica;
// see docs/REPLICATION.md for the topology and epoch-fencing rules.

import (
	"errors"
	"fmt"

	"prodsys/internal/audit"
	"prodsys/internal/engine"
	"prodsys/internal/wal"
)

// ErrReplica marks a write rejected because the system is a replica;
// writes must go to the primary (System.ReplicaOf). Test with
// errors.Is.
var ErrReplica = engine.ErrReplica

// ErrNotReplica marks a Promote call on a system that is already a
// primary.
var ErrNotReplica = errors.New("prodsys: not a replica")

// ErrPromotionGate marks a Promote refused because the pre-promotion
// integrity audit found divergences; the system stays a replica.
var ErrPromotionGate = errors.New("prodsys: promotion gate failed")

// IsReplica reports whether the system is currently following a
// primary (writes rejected with ErrReplica).
func (s *System) IsReplica() bool { return s.eng.IsReplica() }

// ReplicaOf returns the primary's base URL while in replica mode, ""
// on a primary.
func (s *System) ReplicaOf() string {
	if !s.eng.IsReplica() {
		return ""
	}
	return s.replicaOf
}

// WALPosition reports the live WAL epoch and byte size — the
// replication feed cursor. ok is false without a WAL.
func (s *System) WALPosition() (epoch uint64, size int64, ok bool) {
	return s.eng.WALPosition()
}

// WALLog exposes the live write-ahead log handle — the hook the
// replication feed (internal/replica.Feed) reads the log file and the
// epoch-boundary coordinates through. Nil without a WAL.
func (s *System) WALLog() *wal.Log { return s.eng.WAL() }

// ReplicaApply applies committed units shipped from the primary:
// mirrored into the local log byte-for-byte, then run through matcher
// maintenance exactly like recovery replay. The replication client's
// entry point; epoch names the primary log epoch the bytes came from.
func (s *System) ReplicaApply(epoch uint64, raw []byte, txns []wal.Txn) error {
	return s.eng.ApplyReplicaTxns(epoch, raw, txns)
}

// ReplicaBootstrap replaces the replica's working memory with a
// primary checkpoint snapshot and adopts it as the local log's
// checkpoint at the primary's epoch. Returns the tuple count restored.
func (s *System) ReplicaBootstrap(epoch uint64, dump []byte) (int, error) {
	return s.eng.ReplicaBootstrap(epoch, dump)
}

// ReplicaAdvanceEpoch mirrors a primary checkpoint boundary: the local
// log checkpoints its identical working memory under the primary's new
// epoch, keeping mirrored offsets aligned.
func (s *System) ReplicaAdvanceEpoch(epoch uint64) error {
	return s.eng.ReplicaAdvanceEpoch(epoch)
}

// Promote turns a replica into a primary. The caller must have stopped
// the replication client first (no concurrent applies). The sequence:
//
//  1. Truncate the mirrored log to its last complete committed-unit
//     boundary, discarding any partially shipped (never applied) tail.
//  2. Run the full integrity audit as a promotion gate: the matcher's
//     state must match a twin built from scratch over the replica's WM
//     exactly, or promotion is refused with ErrPromotionGate and the
//     system stays a replica.
//  3. Checkpoint under a bumped epoch — the fencing token that
//     outdates the old primary's log — and open the write gate.
//
// The gate's audit report is returned in both outcomes (nil only on an
// earlier failure).
func (s *System) Promote() (*AuditReport, error) {
	if !s.eng.IsReplica() {
		return nil, ErrNotReplica
	}
	if _, err := s.eng.PromoteTruncate(); err != nil {
		return nil, fmt.Errorf("prodsys: promote truncate: %w", err)
	}
	var rep *audit.Report
	var gateErr error
	s.eng.WithMaintenanceLock(func() {
		rep, gateErr = s.aud.Gate(s.eng.Matcher())
	})
	out := convertAuditReport(rep)
	if gateErr != nil {
		return out, fmt.Errorf("%w: %v", ErrPromotionGate, gateErr)
	}
	if err := s.eng.PromoteFinish(); err != nil {
		return out, fmt.Errorf("prodsys: promote: %w", err)
	}
	s.replicaOf = ""
	return out, nil
}
