// Package wal is the durability subsystem: an append-only, checksummed,
// length-prefixed write-ahead log of committed working-memory changes,
// plus checkpoint compaction against the dump format of
// internal/relation.
//
// The paper's §3.2 premise is that working memory "can reside on
// secondary storage and be persistent", and §5 defers each rule
// firing's commit point until the maintenance process completes. This
// package makes that commit point durable: the engine appends one
// logical unit per committed transaction — begin / assert / retract /
// commit records for rule firings, a single batch record for a
// set-oriented ApplyDelta — exactly at the deferred commit point, inside
// the engine's maintenance section. On open, the log's committed prefix (checkpoint plus
// log tail) is replayed through matcher maintenance, so a crash at any
// byte of the file recovers working memory and the conflict set to the
// state after some prefix of committed transactions — never a torn or
// partially applied one.
//
// On-disk layout, given log path P:
//
//	P        — the log: 16-byte header (8-byte magic, 8-byte big-endian
//	           epoch), then records. Each record is a 4-byte big-endian
//	           payload length, a 4-byte IEEE CRC32 of the payload, and
//	           the payload. Payloads begin with a kind byte.
//	P.ckpt   — the checkpoint: one "#pswal-checkpoint <epoch>" line,
//	           then a relation.DB dump. Written atomically
//	           (temp + fsync + rename); the log is re-created empty with
//	           the checkpoint's epoch afterwards, so a crash between the
//	           two steps is detected by the epoch mismatch and the stale
//	           log is ignored.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"prodsys/internal/fsx"
	"prodsys/internal/metrics"
	"prodsys/internal/relation"
	"prodsys/internal/trace"
)

// Magic identifies a log file; the trailing digits version the format.
const Magic = "PSWAL01\n"

// headerLen is the log header size: magic plus the 8-byte epoch.
const headerLen = len(Magic) + 8

// maxRecord bounds a record payload; larger length prefixes mark
// corruption (and keep a fuzzer from allocating gigabytes).
const maxRecord = 1 << 26

// ErrCorrupt marks a structurally invalid log or checkpoint; recovery
// treats a corrupt tail as a crash point and truncates it, so ErrCorrupt
// only surfaces for damage recovery cannot scope (a bad header).
var ErrCorrupt = errors.New("wal: corrupt")

// ErrClosed marks an append or sync on a closed log.
var ErrClosed = errors.New("wal: closed")

// SyncPolicy selects when the log fsyncs.
type SyncPolicy string

// The available sync policies.
const (
	// SyncAlways fsyncs after every committed unit: nothing
	// acknowledged is ever lost, at one fsync per transaction.
	SyncAlways SyncPolicy = "always"
	// SyncInterval fsyncs at most once per Options.Interval; a crash
	// loses at most the last interval's commits.
	SyncInterval SyncPolicy = "interval"
	// SyncNever leaves flushing to the OS (and Close); fastest, weakest.
	SyncNever SyncPolicy = "never"
	// SyncGroup coalesces fsyncs across concurrently committing
	// clients: appends return without syncing, and each committer calls
	// WaitDurable after releasing the append lock. The first waiter
	// becomes the group leader and issues one fsync covering every unit
	// appended so far; the others ride it. Same guarantee as SyncAlways
	// (no acknowledged commit is ever lost) at a fraction of the fsyncs
	// under concurrency.
	SyncGroup SyncPolicy = "group"
)

// Record kinds.
const (
	recBegin   = 1 // uvarint txn, string key (instantiation key, may be empty)
	recAssert  = 2 // uvarint txn, string class, uvarint id, tuple
	recRetract = 3 // uvarint txn, string class, uvarint id
	recCommit  = 4 // uvarint txn
	recBatch   = 5 // uvarint txn, uvarint nops, ops (op: byte retract, string class, uvarint id, tuple if assert)
)

// Op is one working-memory change carried by the log: an assertion with
// its assigned tuple ID and value, or a retraction by ID.
type Op struct {
	Retract bool
	Class   string
	ID      relation.TupleID
	Tuple   relation.Tuple // nil for retractions
}

// Txn is one committed unit read back from the log: a rule-firing
// transaction (Key = instantiation key, possibly empty for non-firing
// units) or a set-oriented batch.
type Txn struct {
	Key   string
	Batch bool
	Ops   []Op
}

// Options configures a Log.
type Options struct {
	// Policy selects the sync policy; default SyncAlways.
	Policy SyncPolicy
	// Interval is the SyncInterval period; default 100ms.
	Interval time.Duration
	// CheckpointEvery makes CheckpointDue report true after that many
	// committed units since the last checkpoint; 0 disables automatic
	// checkpoints.
	CheckpointEvery int
	// Stats receives wal_* counters; may be nil.
	Stats *metrics.Set
	// Tracer receives wal_append / wal_sync / checkpoint events; may be
	// nil.
	Tracer *trace.Tracer
	// FS substitutes the filesystem (fault injection); nil means the
	// real one.
	FS fsx.FS
}

// Recovered describes the durable state found at Open.
type Recovered struct {
	// Existed reports whether any prior state (log or checkpoint) was
	// found. When false the system is fresh and should load its initial
	// facts (logging them).
	Existed bool
	// Checkpoint holds the checkpoint's dump-format snapshot (without
	// the wal header line), nil when no checkpoint exists.
	Checkpoint []byte
	// Txns are the committed units of the log tail, in commit order.
	Txns []Txn
	// TornTail reports that the log ended in a torn or corrupt record,
	// which recovery truncated — the expected shape of a crash mid-write.
	TornTail bool
	// Epoch is the live log epoch after open.
	Epoch uint64
}

// Log is an open write-ahead log. Methods are not safe for concurrent
// use with each other; the engine serializes appends under its
// maintenance lock, and an internal check guards stray concurrent use.
type Log struct {
	fs       fsx.FS
	path     string
	opts     Options
	f        fsx.File
	epoch    uint64
	nextTxn  uint64
	sinceCkp int       // committed units since the last checkpoint
	lastSync time.Time // SyncInterval bookkeeping
	dirty    bool      // unsynced bytes outstanding
	err      error     // sticky append failure

	// Group-commit coalescer state, guarded by gcMu — a separate lock
	// from the append path (which the engine serializes under its
	// maintenance mutex) so committers can queue behind one fsync while
	// the next unit is being appended. gcBusy marks a leader fsync (or a
	// checkpoint/close, which swap the file handle) in flight.
	gcMu      sync.Mutex
	gcCond    *sync.Cond
	appendSeq uint64 // units appended, monotonic across the log's life
	syncedSeq uint64 // highest appendSeq covered by a completed fsync
	gcBusy    bool
	gcErr     error // sticky group-side failure (fsync error)

	// Shipping position, guarded by gcMu so the replication feed can
	// read it without the append lock: the live epoch and the log's byte
	// size (header included). prevEpoch/prevSize remember the final
	// position of the epoch the last checkpoint retired — a replica
	// sitting exactly there was fully caught up and can follow the
	// epoch bump without a snapshot.
	posEpoch  uint64
	posSize   int64
	prevEpoch uint64
	prevSize  int64
}

// ckptPath derives the checkpoint path from the log path.
func ckptPath(path string) string { return path + ".ckpt" }

// CheckpointPath returns the checkpoint file path used for a log at
// path.
func CheckpointPath(path string) string { return ckptPath(path) }

// Open opens (creating if necessary) the log at path and returns the
// recovered durable state. A torn tail — the signature of a crash mid
// write — is truncated: the log is atomically rewritten to its valid
// prefix before new appends.
func Open(path string, opts Options) (*Log, *Recovered, error) {
	if opts.Policy == "" {
		opts.Policy = SyncAlways
	}
	if opts.Interval <= 0 {
		opts.Interval = 100 * time.Millisecond
	}
	fs := opts.FS
	if fs == nil {
		fs = fsx.OS{}
	}
	l := &Log{fs: fs, path: path, opts: opts, lastSync: time.Now()}
	l.gcCond = sync.NewCond(&l.gcMu)
	rec := &Recovered{}

	ckptEpoch, ckptData, ckptExists, err := readCheckpoint(fs, ckptPath(path))
	if err != nil {
		return nil, nil, err
	}
	logData, logErr := fs.ReadFile(path)
	logExists := logErr == nil
	if logErr != nil && !os.IsNotExist(logErr) {
		return nil, nil, logErr
	}
	rec.Existed = logExists || ckptExists

	epoch := uint64(1)
	if ckptExists {
		epoch = ckptEpoch
		rec.Checkpoint = ckptData
	}
	rewrite := true // write a fresh header (and valid prefix) before appending
	var validTail []byte
	size := int64(headerLen)
	if logExists {
		logEpoch, txns, bounds, torn := ScanLog(logData)
		switch {
		case ckptExists && logEpoch != ckptEpoch:
			// Crash between checkpoint rename and log reset: the log
			// predates the checkpoint and its records are already in the
			// snapshot. Ignore it and start a fresh log at the
			// checkpoint's epoch.
			rec.TornTail = rec.TornTail || torn
		case len(bounds) == 0:
			// Header itself torn or corrupt; nothing recoverable here.
			rec.TornTail = true
		default:
			epoch = logEpoch
			rec.Txns = txns
			rec.TornTail = torn
			validTail = logData[headerLen:bounds[len(bounds)-1]]
			size = bounds[len(bounds)-1]
			// Seed the txn counter past every id seen in the tail so new
			// units never collide with logged ones.
			l.nextTxn = maxTxnID(logData[:bounds[len(bounds)-1]])
			if !torn {
				rewrite = false
			}
		}
	}
	l.epoch = epoch
	l.posEpoch = epoch
	l.posSize = size
	rec.Epoch = epoch

	if rewrite {
		if err := l.resetFile(epoch, validTail); err != nil {
			return nil, nil, err
		}
	}
	f, err := fs.OpenAppend(path)
	if err != nil {
		return nil, nil, err
	}
	l.f = f
	return l, rec, nil
}

// resetFile atomically replaces the log file with header + tail.
func (l *Log) resetFile(epoch uint64, tail []byte) error {
	return fsx.WriteAtomic(l.fs, l.path, func(w io.Writer) error {
		if err := writeHeader(w, epoch); err != nil {
			return err
		}
		if len(tail) > 0 {
			if _, err := w.Write(tail); err != nil {
				return err
			}
		}
		return nil
	})
}

// writeHeader emits the magic and epoch.
func writeHeader(w io.Writer, epoch uint64) error {
	var hdr [16]byte
	copy(hdr[:], Magic)
	binary.BigEndian.PutUint64(hdr[8:], epoch)
	_, err := w.Write(hdr[:])
	return err
}

// readCheckpoint loads and splits the checkpoint file.
func readCheckpoint(fs fsx.FS, path string) (epoch uint64, dump []byte, exists bool, err error) {
	data, err := fs.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil, false, nil
		}
		return 0, nil, false, err
	}
	nl := strings.IndexByte(string(data), '\n')
	if nl < 0 || !strings.HasPrefix(string(data[:nl]), "#pswal-checkpoint ") {
		return 0, nil, false, fmt.Errorf("%w: checkpoint header missing in %s", ErrCorrupt, path)
	}
	e, perr := strconv.ParseUint(strings.TrimPrefix(string(data[:nl]), "#pswal-checkpoint "), 10, 64)
	if perr != nil {
		return 0, nil, false, fmt.Errorf("%w: bad checkpoint epoch in %s", ErrCorrupt, path)
	}
	return e, data[nl+1:], true, nil
}

// AppendTxn logs one committed rule-firing transaction as begin / op /
// commit records. The engine calls this at the paper's deferred commit
// point: after the maintenance process completes, inside the same section.
// key is the fired instantiation's key (restored as refraction state at
// recovery); it may be empty for non-firing units.
func (l *Log) AppendTxn(key string, ops []Op) error {
	txn := l.nextTxn + 1
	recs := make([][]byte, 0, len(ops)+2)
	recs = append(recs, encodeBegin(txn, key))
	for _, op := range ops {
		recs = append(recs, encodeOp(txn, op))
	}
	recs = append(recs, encodeCommit(txn))
	if err := l.appendUnit(recs); err != nil {
		return err
	}
	l.nextTxn = txn
	return nil
}

// AppendBatch logs one set-oriented batch (engine.ApplyDelta) as a
// single record: the whole batch is atomic by construction — a torn
// write loses it entirely, never applies it partially.
func (l *Log) AppendBatch(ops []Op) error {
	txn := l.nextTxn + 1
	if err := l.appendUnit([][]byte{encodeBatch(txn, ops)}); err != nil {
		return err
	}
	l.nextTxn = txn
	return nil
}

// appendUnit writes one committed unit's records — each framed,
// checksummed record as its own write — then applies the sync policy.
func (l *Log) appendUnit(recs [][]byte) error {
	if l.err != nil {
		return l.err
	}
	if l.f == nil {
		return ErrClosed
	}
	tr := l.opts.Tracer
	t0 := tr.Now()
	var bytes int64
	for _, payload := range recs {
		n, err := l.writeRecord(payload)
		bytes += n
		if err != nil {
			l.err = fmt.Errorf("wal: append: %w", err)
			return l.err
		}
	}
	l.dirty = true
	l.sinceCkp++
	l.opts.Stats.Inc(metrics.WALAppends)
	l.opts.Stats.Add(metrics.WALRecords, int64(len(recs)))
	l.opts.Stats.Add(metrics.WALBytes, bytes)
	if tr.Enabled() {
		tr.Emit(trace.Event{
			Kind: trace.KindWALAppend, At: t0, Dur: tr.Now() - t0,
			CE: -1, Count: int64(len(recs)),
		})
	}
	l.gcMu.Lock()
	l.appendSeq++
	l.posSize += bytes
	l.gcMu.Unlock()
	switch l.opts.Policy {
	case SyncAlways:
		return l.Sync()
	case SyncInterval:
		if time.Since(l.lastSync) >= l.opts.Interval {
			return l.Sync()
		}
	case SyncGroup:
		// No inline sync: the committer calls WaitDurable after releasing
		// the append lock, and a group leader fsyncs for everyone queued.
	}
	return nil
}

// Position returns the live epoch and the log's byte size (header
// included) — the (epoch, offset) coordinate replication ships from and
// resumes at. Safe for concurrent use with appends.
func (l *Log) Position() (epoch uint64, size int64) {
	l.gcMu.Lock()
	defer l.gcMu.Unlock()
	return l.posEpoch, l.posSize
}

// setPosition publishes a new shipping coordinate after a file swap
// (checkpoint, adopt, truncate).
func (l *Log) setPosition(epoch uint64, size int64) {
	l.gcMu.Lock()
	l.posEpoch = epoch
	l.posSize = size
	l.gcMu.Unlock()
}

// PrevBoundary returns the final (epoch, size) of the log retired by
// the most recent checkpoint — the coordinate a fully caught-up
// replica sat at when the epoch bumped. Zero values before any
// checkpoint this process lifetime.
func (l *Log) PrevBoundary() (epoch uint64, size int64) {
	l.gcMu.Lock()
	defer l.gcMu.Unlock()
	return l.prevEpoch, l.prevSize
}

// Path returns the log file path (the checkpoint lives at Path+".ckpt").
func (l *Log) Path() string { return l.path }

// FileSystem returns the filesystem the log writes through.
func (l *Log) FileSystem() fsx.FS { return l.fs }

// LastSeq returns the sequence number of the most recently appended
// unit — the handle a committer passes to WaitDurable under the group
// sync policy. Read it right after the append, while still holding
// whatever lock serializes appends.
func (l *Log) LastSeq() uint64 {
	l.gcMu.Lock()
	defer l.gcMu.Unlock()
	return l.appendSeq
}

// WaitDurable blocks until the unit identified by seq (from LastSeq) is
// on stable storage. Under every policy except SyncGroup it is a no-op:
// SyncAlways already synced inline, and the interval/never policies do
// not promise per-commit durability. Under SyncGroup the first waiter
// becomes the leader and issues one fsync covering every unit appended
// so far; concurrent waiters ride that fsync. Safe for concurrent use.
func (l *Log) WaitDurable(seq uint64) error {
	if l.opts.Policy != SyncGroup || seq == 0 {
		return nil
	}
	l.gcMu.Lock()
	defer l.gcMu.Unlock()
	for {
		if l.gcErr != nil && l.syncedSeq < seq {
			return l.gcErr
		}
		if l.syncedSeq >= seq {
			l.opts.Stats.Inc(metrics.WALGroupWaiters)
			return nil
		}
		if l.gcBusy {
			l.gcCond.Wait()
			continue
		}
		// Become the group leader: fsync everything appended so far.
		l.gcBusy = true
		target := l.appendSeq
		f := l.f
		l.gcMu.Unlock()
		tr := l.opts.Tracer
		t0 := tr.Now()
		var serr error
		if f == nil {
			serr = ErrClosed
		} else {
			serr = f.Sync()
		}
		l.gcMu.Lock()
		l.gcBusy = false
		if serr != nil {
			l.gcErr = fmt.Errorf("wal: group sync: %w", serr)
			l.gcCond.Broadcast()
			return l.gcErr
		}
		if target > l.syncedSeq {
			l.syncedSeq = target
		}
		l.opts.Stats.Inc(metrics.WALGroupCommits)
		l.opts.Stats.Inc(metrics.WALSyncs)
		if tr.Enabled() {
			tr.Emit(trace.Event{Kind: trace.KindWALSync, At: t0, Dur: tr.Now() - t0, CE: -1, Count: int64(target)})
		}
		l.gcCond.Broadcast()
	}
}

// gcAcquire claims the group-commit slot exclusively, waiting out any
// in-flight leader fsync. Checkpoint and Close take it before swapping
// or closing the file handle, so a leader never syncs a stale handle.
func (l *Log) gcAcquire() {
	l.gcMu.Lock()
	for l.gcBusy {
		l.gcCond.Wait()
	}
	l.gcBusy = true
	l.gcMu.Unlock()
}

// gcRelease releases the exclusive slot, publishes durability up to
// durableTo (0 leaves syncedSeq untouched), records err as the sticky
// group failure, and wakes every waiter.
func (l *Log) gcRelease(durableTo uint64, err error) {
	l.gcMu.Lock()
	l.gcBusy = false
	if err != nil && l.gcErr == nil {
		l.gcErr = err
	}
	if durableTo > l.syncedSeq {
		l.syncedSeq = durableTo
	}
	l.gcCond.Broadcast()
	l.gcMu.Unlock()
}

// writeRecord frames and writes one payload, returning the bytes
// written.
func (l *Log) writeRecord(payload []byte) (int64, error) {
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	rec := append(hdr[:], payload...)
	n, err := l.f.Write(rec)
	return int64(n), err
}

// Sync forces the log to stable storage.
func (l *Log) Sync() error {
	if l.err != nil {
		return l.err
	}
	if !l.dirty {
		return nil
	}
	tr := l.opts.Tracer
	t0 := tr.Now()
	if err := l.f.Sync(); err != nil {
		l.err = fmt.Errorf("wal: sync: %w", err)
		return l.err
	}
	l.dirty = false
	l.lastSync = time.Now()
	l.opts.Stats.Inc(metrics.WALSyncs)
	if tr.Enabled() {
		tr.Emit(trace.Event{Kind: trace.KindWALSync, At: t0, Dur: tr.Now() - t0, CE: -1})
	}
	return nil
}

// CheckpointDue reports whether enough units have committed since the
// last checkpoint to trigger automatic compaction.
func (l *Log) CheckpointDue() bool {
	return l.opts.CheckpointEvery > 0 && l.sinceCkp >= l.opts.CheckpointEvery
}

// Checkpoint compacts the log: dump writes the current working memory
// (the caller must hold whatever lock makes that snapshot consistent),
// which lands in the checkpoint file via temp + fsync + rename, and the
// log is then re-created empty under a bumped epoch. A crash before the
// checkpoint rename keeps the old checkpoint + full log; a crash between
// rename and log reset is detected at open by the epoch mismatch and the
// stale log is ignored.
func (l *Log) Checkpoint(dump func(io.Writer) error) error {
	return l.CheckpointAs(l.epoch+1, dump)
}

// CheckpointAs is Checkpoint with an explicit target epoch. Replication
// uses it on the replica side to mirror the primary's epoch bumps: when
// the feed announces a new epoch, the replica snapshots its own working
// memory under that epoch, keeping local recovery self-contained while
// staying position-compatible with the primary's log. The target must
// be greater than the live epoch.
func (l *Log) CheckpointAs(epoch uint64, dump func(io.Writer) error) error {
	if l.err != nil {
		return l.err
	}
	if l.f == nil {
		return ErrClosed
	}
	if epoch <= l.epoch {
		return fmt.Errorf("wal: checkpoint epoch %d not past live epoch %d", epoch, l.epoch)
	}
	// Exclude group-commit leaders while the file handle is swapped; the
	// checkpoint itself makes everything appended so far durable, so
	// waiters queued behind it are satisfied on release.
	l.gcAcquire()
	err := l.checkpointLocked(epoch, dump)
	l.gcRelease(l.LastSeq(), err)
	return err
}

// checkpointLocked is the body of Checkpoint; the caller holds the
// group-commit slot (and serializes appends).
func (l *Log) checkpointLocked(newEpoch uint64, dump func(io.Writer) error) error {
	tr := l.opts.Tracer
	t0 := tr.Now()
	// The log must be durable up to the snapshot before the snapshot can
	// replace it.
	if err := l.Sync(); err != nil {
		return err
	}
	err := fsx.WriteAtomic(l.fs, ckptPath(l.path), func(w io.Writer) error {
		if _, err := fmt.Fprintf(w, "#pswal-checkpoint %d\n", newEpoch); err != nil {
			return err
		}
		return dump(w)
	})
	if err != nil {
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	if err := l.swapFreshLog(newEpoch); err != nil {
		return err
	}
	l.opts.Stats.Inc(metrics.WALCheckpoints)
	if tr.Enabled() {
		tr.Emit(trace.Event{Kind: trace.KindCheckpoint, At: t0, Dur: tr.Now() - t0, CE: -1, ID: newEpoch})
	}
	return nil
}

// swapFreshLog replaces the log file with an empty one under epoch and
// reopens the append handle; the caller holds the group-commit slot.
func (l *Log) swapFreshLog(epoch uint64) error {
	if err := l.resetFile(epoch, nil); err != nil {
		return fmt.Errorf("wal: log reset: %w", err)
	}
	if err := l.f.Close(); err != nil {
		l.err = err
		return err
	}
	f, err := l.fs.OpenAppend(l.path)
	if err != nil {
		l.err = err
		return err
	}
	l.f = f
	l.epoch = epoch
	l.sinceCkp = 0
	l.dirty = false
	l.gcMu.Lock()
	l.prevEpoch, l.prevSize = l.posEpoch, l.posSize
	l.posEpoch, l.posSize = epoch, int64(headerLen)
	l.gcMu.Unlock()
	return nil
}

// AppendRaw appends pre-framed record bytes verbatim — the replica's
// mirroring path: shipped bytes land in the local log unre-encoded, so
// the replica's (epoch, offset) coordinates stay byte-compatible with
// the primary's and a promoted replica can serve the feed itself. units
// counts the committed units completed within raw (for checkpoint
// accounting); the sync policy applies as for regular appends.
func (l *Log) AppendRaw(raw []byte, units int) error {
	if l.err != nil {
		return l.err
	}
	if l.f == nil {
		return ErrClosed
	}
	if len(raw) == 0 {
		return nil
	}
	n, err := l.f.Write(raw)
	if err != nil {
		l.err = fmt.Errorf("wal: append raw: %w", err)
		return l.err
	}
	l.dirty = true
	l.sinceCkp += units
	if id := maxTxnIDRecords(raw); id > l.nextTxn {
		l.nextTxn = id
	}
	l.opts.Stats.Add(metrics.WALAppends, int64(units))
	l.opts.Stats.Add(metrics.WALBytes, int64(n))
	l.gcMu.Lock()
	l.appendSeq += uint64(units)
	l.posSize += int64(n)
	l.gcMu.Unlock()
	switch l.opts.Policy {
	case SyncAlways:
		return l.Sync()
	case SyncInterval:
		if time.Since(l.lastSync) >= l.opts.Interval {
			return l.Sync()
		}
	}
	return nil
}

// AdoptCheckpoint installs a snapshot shipped by a replication feed:
// the dump lands in the local checkpoint file under the primary's
// epoch, and the log restarts empty at that epoch. The caller is
// responsible for making working memory agree with the dump.
func (l *Log) AdoptCheckpoint(epoch uint64, dump []byte) error {
	if l.err != nil {
		return l.err
	}
	if l.f == nil {
		return ErrClosed
	}
	l.gcAcquire()
	err := l.adoptLocked(epoch, dump)
	l.gcRelease(l.LastSeq(), err)
	return err
}

func (l *Log) adoptLocked(epoch uint64, dump []byte) error {
	err := fsx.WriteAtomic(l.fs, ckptPath(l.path), func(w io.Writer) error {
		if _, err := fmt.Fprintf(w, "#pswal-checkpoint %d\n", epoch); err != nil {
			return err
		}
		_, err := w.Write(dump)
		return err
	})
	if err != nil {
		return fmt.Errorf("wal: adopt checkpoint: %w", err)
	}
	if err := l.swapFreshLog(epoch); err != nil {
		return err
	}
	l.nextTxn = 0
	l.opts.Stats.Inc(metrics.WALCheckpoints)
	return nil
}

// TruncateTail rewrites the log to end exactly at the last complete
// committed-unit boundary — the promotion step that discards any
// shipped records of a unit whose commit never arrived before the
// primary died. It returns the bytes discarded (0 when the log already
// ends on a unit boundary).
func (l *Log) TruncateTail() (int64, error) {
	if l.err != nil {
		return 0, l.err
	}
	if l.f == nil {
		return 0, ErrClosed
	}
	l.gcAcquire()
	n, err := l.truncateTailLocked()
	l.gcRelease(l.LastSeq(), err)
	return n, err
}

func (l *Log) truncateTailLocked() (int64, error) {
	if err := l.Sync(); err != nil {
		return 0, err
	}
	data, err := l.fs.ReadFile(l.path)
	if err != nil {
		return 0, err
	}
	end := LastUnitBoundary(data)
	if end < 0 {
		return 0, fmt.Errorf("%w: bad header at truncate", ErrCorrupt)
	}
	discarded := int64(len(data)) - end
	if discarded == 0 {
		return 0, nil
	}
	if err := l.resetFile(l.epoch, data[headerLen:end]); err != nil {
		return 0, fmt.Errorf("wal: truncate: %w", err)
	}
	if err := l.f.Close(); err != nil {
		l.err = err
		return 0, err
	}
	f, err := l.fs.OpenAppend(l.path)
	if err != nil {
		l.err = err
		return 0, err
	}
	l.f = f
	l.dirty = false
	l.nextTxn = maxTxnID(data[:end])
	l.setPosition(l.epoch, end)
	return discarded, nil
}

// Epoch returns the live log epoch.
func (l *Log) Epoch() uint64 { return l.epoch }

// Close syncs and closes the log. It waits out any in-flight group
// fsync first; a committer still blocked in WaitDurable when Close's
// final sync lands is released satisfied (its unit is durable).
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	l.gcAcquire()
	serr := l.Sync()
	cerr := l.f.Close()
	l.f = nil
	if serr == nil {
		l.gcRelease(l.LastSeq(), nil)
	} else {
		l.gcRelease(0, serr)
	}
	if serr != nil && !errors.Is(serr, l.err) {
		return serr
	}
	if l.err != nil && serr == nil {
		return cerr
	}
	return cerr
}

// ---- encoding ----

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendTuple(b []byte, t relation.Tuple) []byte {
	b = binary.AppendUvarint(b, uint64(len(t)))
	for _, v := range t {
		b = appendString(b, relation.EncodeValue(v))
	}
	return b
}

func encodeBegin(txn uint64, key string) []byte {
	b := []byte{recBegin}
	b = binary.AppendUvarint(b, txn)
	return appendString(b, key)
}

func encodeCommit(txn uint64) []byte {
	b := []byte{recCommit}
	return binary.AppendUvarint(b, txn)
}

func encodeOp(txn uint64, op Op) []byte {
	if op.Retract {
		b := []byte{recRetract}
		b = binary.AppendUvarint(b, txn)
		b = appendString(b, op.Class)
		return binary.AppendUvarint(b, uint64(op.ID))
	}
	b := []byte{recAssert}
	b = binary.AppendUvarint(b, txn)
	b = appendString(b, op.Class)
	b = binary.AppendUvarint(b, uint64(op.ID))
	return appendTuple(b, op.Tuple)
}

func encodeBatch(txn uint64, ops []Op) []byte {
	b := []byte{recBatch}
	b = binary.AppendUvarint(b, txn)
	b = binary.AppendUvarint(b, uint64(len(ops)))
	for _, op := range ops {
		if op.Retract {
			b = append(b, 1)
			b = appendString(b, op.Class)
			b = binary.AppendUvarint(b, uint64(op.ID))
			continue
		}
		b = append(b, 0)
		b = appendString(b, op.Class)
		b = binary.AppendUvarint(b, uint64(op.ID))
		b = appendTuple(b, op.Tuple)
	}
	return b
}

// ---- decoding ----

// byteReader walks a payload.
type byteReader struct {
	b   []byte
	pos int
	bad bool
}

func (r *byteReader) u8() byte {
	if r.pos >= len(r.b) {
		r.bad = true
		return 0
	}
	v := r.b[r.pos]
	r.pos++
	return v
}

func (r *byteReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b[r.pos:])
	if n <= 0 {
		r.bad = true
		return 0
	}
	r.pos += n
	return v
}

func (r *byteReader) str() string {
	n := r.uvarint()
	if r.bad || n > uint64(len(r.b)-r.pos) {
		r.bad = true
		return ""
	}
	s := string(r.b[r.pos : r.pos+int(n)])
	r.pos += int(n)
	return s
}

func (r *byteReader) tuple() relation.Tuple {
	n := r.uvarint()
	if r.bad || n > uint64(len(r.b)-r.pos) { // each value costs ≥1 byte
		r.bad = true
		return nil
	}
	t := make(relation.Tuple, 0, n)
	for i := uint64(0); i < n; i++ {
		v, err := relation.DecodeValue(r.str())
		if r.bad || err != nil {
			r.bad = true
			return nil
		}
		t = append(t, v)
	}
	return t
}

func (r *byteReader) done() bool { return !r.bad && r.pos == len(r.b) }

// decodeOpBody parses class/id/tuple following a kind+txn prefix.
func decodeOpBody(r *byteReader, retract bool) Op {
	op := Op{Retract: retract}
	op.Class = r.str()
	op.ID = relation.TupleID(r.uvarint())
	if !retract {
		op.Tuple = r.tuple()
	}
	return op
}

// ScanLog parses raw log bytes. It returns the log epoch, the committed
// units in commit order, the record boundaries (byte offsets usable as
// crash points: boundaries[0] is the end of the header, each later entry
// the end of one valid record), and whether the log ends in a torn or
// corrupt record. A file too short or mismatched in magic yields no
// boundaries and torn=true.
func ScanLog(data []byte) (epoch uint64, txns []Txn, boundaries []int64, torn bool) {
	if len(data) < headerLen || string(data[:len(Magic)]) != Magic {
		return 0, nil, nil, true
	}
	epoch = binary.BigEndian.Uint64(data[len(Magic):headerLen])
	boundaries = append(boundaries, int64(headerLen))
	pos := headerLen
	pending := map[uint64]*Txn{}
	order := []uint64{}
	for {
		if pos == len(data) {
			return epoch, txns, boundaries, false
		}
		if len(data)-pos < 8 {
			return epoch, txns, boundaries, true
		}
		n := binary.BigEndian.Uint32(data[pos:])
		sum := binary.BigEndian.Uint32(data[pos+4:])
		if n > maxRecord || len(data)-pos-8 < int(n) {
			return epoch, txns, boundaries, true
		}
		payload := data[pos+8 : pos+8+int(n)]
		if crc32.ChecksumIEEE(payload) != sum {
			return epoch, txns, boundaries, true
		}
		if !applyRecord(payload, pending, &order, &txns) {
			return epoch, txns, boundaries, true
		}
		pos += 8 + int(n)
		boundaries = append(boundaries, int64(pos))
	}
}

// applyRecord folds one valid-checksum payload into the decoder state,
// reporting structural validity.
func applyRecord(payload []byte, pending map[uint64]*Txn, order *[]uint64, txns *[]Txn) bool {
	if len(payload) == 0 {
		return false
	}
	r := &byteReader{b: payload[1:]}
	switch payload[0] {
	case recBegin:
		txn := r.uvarint()
		key := r.str()
		if !r.done() {
			return false
		}
		if _, dup := pending[txn]; !dup {
			pending[txn] = &Txn{Key: key}
			*order = append(*order, txn)
		}
	case recAssert, recRetract:
		txn := r.uvarint()
		op := decodeOpBody(r, payload[0] == recRetract)
		if !r.done() {
			return false
		}
		if p := pending[txn]; p != nil {
			p.Ops = append(p.Ops, op)
		}
	case recCommit:
		txn := r.uvarint()
		if !r.done() {
			return false
		}
		if p := pending[txn]; p != nil {
			*txns = append(*txns, *p)
			delete(pending, txn)
		}
	case recBatch:
		txn := r.uvarint()
		n := r.uvarint()
		if r.bad || n > uint64(len(r.b)) {
			return false
		}
		t := Txn{Batch: true, Ops: make([]Op, 0, n)}
		for i := uint64(0); i < n; i++ {
			retract := r.u8() == 1
			t.Ops = append(t.Ops, decodeOpBody(r, retract))
		}
		if !r.done() {
			return false
		}
		_ = txn
		*txns = append(*txns, t)
	default:
		return false
	}
	return true
}

// maxTxnID scans valid records for the highest transaction id, so a
// reopened log continues numbering without collisions.
func maxTxnID(data []byte) uint64 {
	if len(data) < headerLen {
		return 0
	}
	return maxTxnIDRecords(data[headerLen:])
}

// maxTxnIDRecords is maxTxnID over headerless record bytes (a shipped
// chunk).
func maxTxnIDRecords(data []byte) uint64 {
	var maxID uint64
	pos := 0
	for len(data)-pos >= 8 {
		n := binary.BigEndian.Uint32(data[pos:])
		if n > maxRecord || len(data)-pos-8 < int(n) {
			break
		}
		payload := data[pos+8 : pos+8+int(n)]
		if len(payload) > 0 {
			r := &byteReader{b: payload[1:]}
			if id := r.uvarint(); !r.bad && id > maxID {
				maxID = id
			}
		}
		pos += 8 + int(n)
	}
	return maxID
}

// LastUnitBoundary returns the byte offset just past the last record
// that completes a committed unit (a commit or batch record) in a full
// log image — the offset promotion truncates to. A log with a valid
// header but no complete unit yields the header length; a bad header
// yields -1.
func LastUnitBoundary(data []byte) int64 {
	if len(data) < headerLen || string(data[:len(Magic)]) != Magic {
		return -1
	}
	end := int64(headerLen)
	pos := headerLen
	for len(data)-pos >= 8 {
		n := binary.BigEndian.Uint32(data[pos:])
		if n > maxRecord || len(data)-pos-8 < int(n) {
			break
		}
		payload := data[pos+8 : pos+8+int(n)]
		if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(data[pos+4:]) {
			break
		}
		pos += 8 + int(n)
		if len(payload) > 0 && (payload[0] == recCommit || payload[0] == recBatch) {
			end = int64(pos)
		}
	}
	return end
}

// HeaderLen is the log header size in bytes — where record framing
// starts in a raw log image. Exported (as an int64, matching log
// offsets) for the replication feed, whose byte offsets are positions
// in that image.
const HeaderLen = int64(headerLen)

// ValidPrefix returns the offset just past the last complete,
// checksum-valid record in a raw log image — the shippable prefix: a
// torn or still-being-written tail record is excluded, but records of
// a not-yet-committed unit are included (the stream scanner on the
// other end holds them pending). A bad header yields -1.
func ValidPrefix(data []byte) int64 {
	if len(data) < headerLen || string(data[:len(Magic)]) != Magic {
		return -1
	}
	pos := headerLen
	for len(data)-pos >= 8 {
		n := binary.BigEndian.Uint32(data[pos:])
		if n > maxRecord || len(data)-pos-8 < int(n) {
			break
		}
		if crc32.ChecksumIEEE(data[pos+8:pos+8+int(n)]) != binary.BigEndian.Uint32(data[pos+4:]) {
			break
		}
		pos += 8 + int(n)
	}
	return int64(pos)
}

// LogEpoch reads the epoch stamped in a raw log image's header, or
// false on a short or foreign image.
func LogEpoch(data []byte) (uint64, bool) {
	if len(data) < headerLen || string(data[:len(Magic)]) != Magic {
		return 0, false
	}
	return binary.BigEndian.Uint64(data[len(Magic):headerLen]), true
}

// ReadCheckpoint reads a checkpoint file: its epoch header and dump
// bytes. exists is false (with a nil error) when no checkpoint file is
// present. Exported for the replication feed's bootstrap path.
func ReadCheckpoint(fs fsx.FS, path string) (epoch uint64, dump []byte, exists bool, err error) {
	return readCheckpoint(fs, path)
}
