package prodsys

// This file is the crash-safety surface of the system: write-ahead
// logging of every committed unit, checkpointed recovery at Load, and
// the dials that tune both. The mechanism lives in internal/wal; see
// docs/DURABILITY.md for the protocol.

import (
	"bytes"
	"fmt"
	"time"

	"prodsys/internal/metrics"
	"prodsys/internal/trace"
	"prodsys/internal/wal"
)

// WALSyncMode selects when the write-ahead log reaches stable storage.
type WALSyncMode string

// The available sync modes.
const (
	// WALSyncAlways fsyncs after every committed unit (default): no
	// acknowledged commit is ever lost.
	WALSyncAlways WALSyncMode = "always"
	// WALSyncInterval fsyncs at most once per Options.WALSyncEvery; a
	// crash loses at most the last interval's commits.
	WALSyncInterval WALSyncMode = "interval"
	// WALSyncNever leaves flushing to the OS and Close.
	WALSyncNever WALSyncMode = "never"
	// WALSyncGroup coalesces fsyncs across concurrently committing
	// clients (group commit): each commit's acknowledgement waits for a
	// group fsync covering every unit appended so far, issued by the
	// first waiter. Same guarantee as WALSyncAlways — no acknowledged
	// commit is ever lost — at a fraction of the fsyncs under
	// concurrency. The policy of choice for server mode.
	WALSyncGroup WALSyncMode = "group"
)

// WALSyncModes lists every available sync mode.
func WALSyncModes() []WALSyncMode {
	return []WALSyncMode{WALSyncAlways, WALSyncInterval, WALSyncNever, WALSyncGroup}
}

// RecoveryInfo describes what Load found in the write-ahead log.
type RecoveryInfo struct {
	// Recovered reports that prior durable state existed and was
	// replayed; the program's initial facts were NOT re-loaded.
	Recovered bool
	// Checkpoint reports that a checkpoint snapshot seeded the WM.
	Checkpoint bool
	// Tuples counts tuples restored from the checkpoint.
	Tuples int
	// Txns counts committed log units replayed after the checkpoint.
	Txns int
	// Ops counts WM operations those units carried.
	Ops int
	// TornTail reports the log ended in a torn or corrupt record — the
	// signature of a crash mid-write — which recovery truncated.
	TornTail bool
	// Elapsed is the wall time recovery took.
	Elapsed time.Duration
}

// Recovery reports what Load recovered from the write-ahead log; the
// zero value when the system has no WAL or started fresh.
func (s *System) Recovery() RecoveryInfo {
	if s.recovery == nil {
		return RecoveryInfo{}
	}
	return *s.recovery
}

// openWAL opens (or creates) the write-ahead log configured in opts,
// replays any recovered state through the matcher, and attaches the log
// to the engine's commit points. A no-op when opts.WALPath is empty.
func (s *System) openWAL(opts Options) error {
	if opts.WALPath == "" {
		return nil
	}
	var policy wal.SyncPolicy
	switch opts.WALSync {
	case "", WALSyncAlways:
		policy = wal.SyncAlways
	case WALSyncInterval:
		policy = wal.SyncInterval
	case WALSyncNever:
		policy = wal.SyncNever
	case WALSyncGroup:
		policy = wal.SyncGroup
	default:
		return fmt.Errorf("prodsys: unknown WAL sync mode %q", opts.WALSync)
	}
	l, rec, err := wal.Open(opts.WALPath, wal.Options{
		Policy:          policy,
		Interval:        opts.WALSyncEvery,
		CheckpointEvery: opts.WALCheckpointEvery,
		Stats:           s.stats,
		Tracer:          s.tracer,
		FS:              opts.WALFS,
	})
	if err != nil {
		return fmt.Errorf("prodsys: open WAL: %w", err)
	}
	info := &RecoveryInfo{Recovered: rec.Existed, TornTail: rec.TornTail}
	if rec.Existed {
		t0 := time.Now()
		if len(rec.Checkpoint) > 0 {
			restored, err := s.eng.Restore(bytes.NewReader(rec.Checkpoint))
			if err != nil {
				l.Close()
				return fmt.Errorf("prodsys: restore checkpoint: %w", err)
			}
			info.Checkpoint = true
			info.Tuples = len(restored)
		}
		n, err := s.eng.Replay(rec.Txns)
		if err != nil {
			l.Close()
			return fmt.Errorf("prodsys: replay WAL: %w", err)
		}
		info.Txns = len(rec.Txns)
		info.Ops = n
		info.Elapsed = time.Since(t0)
		s.stats.Add(metrics.RecoveryTuples, int64(info.Tuples))
		s.stats.Add(metrics.RecoveryTxns, int64(info.Txns))
		s.stats.Add(metrics.RecoveryOps, int64(n))
		s.stats.Add(metrics.RecoveryNanos, info.Elapsed.Nanoseconds())
		if s.tracer.Enabled() {
			s.tracer.Emit(trace.Event{
				Kind: trace.KindRecoveryReplay, At: s.tracer.Now(),
				CE: -1, Count: int64(info.Txns),
			})
		}
	}
	s.wal = l
	s.recovery = info
	s.eng.SetWAL(l)
	return nil
}

// Checkpoint forces a WAL checkpoint compaction: the current working
// memory is snapshotted atomically (temp file + fsync + rename) and the
// log restarts empty under a new epoch, so recovery reads the snapshot
// plus only the units committed since. A no-op without a WAL.
func (s *System) Checkpoint() error { return s.eng.Checkpoint() }

// SyncWAL forces any buffered log records to stable storage — useful
// under WALSyncInterval or WALSyncNever before handing control to code
// that might crash. A no-op without a WAL.
func (s *System) SyncWAL() error {
	if s.wal == nil {
		return nil
	}
	return s.wal.Sync()
}

// ReadOnly reports whether a WAL failure (full disk, I/O error) has
// flipped the system into read-only degraded mode: queries, WM reads,
// metrics and audits keep serving; writes fail fast with ErrReadOnly.
// Degradation is one-way — restart the system (recovery replays the
// committed log) to resume writes.
func (s *System) ReadOnly() bool { return s.eng.ReadOnly() }

// ReadOnlyCause returns the failure that flipped the system read-only,
// nil while writable.
func (s *System) ReadOnlyCause() error { return s.eng.ReadOnlyCause() }

// Close shuts the system down: writes start failing with ErrClosed, and
// the write-ahead log (when one is attached) is synced and closed.
// Idempotent and safe for concurrent callers — double Close and a Close
// racing an in-flight Run or Batch must not panic; the racing commit
// either lands in the log before it closes or fails with ErrClosed.
// Reads keep working after Close.
func (s *System) Close() error {
	s.closeMu.Lock()
	defer s.closeMu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.wal = nil
	return s.eng.Shutdown()
}
