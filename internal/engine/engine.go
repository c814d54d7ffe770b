// Package engine drives production-system execution: the recognize-act
// cycle of §2.1 (Match, Select, Act) with two executors.
//
// The serial executor reproduces OPS5: one instantiation is selected per
// cycle under a conflict-resolution strategy and its RHS actions run to
// completion before the next Match.
//
// The concurrent executor implements the paper's proposal (§5.2): every
// instantiation in the conflict set becomes a transaction; transactions
// run on a pool of workers under strict two-phase locking over the WM
// relations, with read locks on matched tuples, write locks on updated
// tuples, relation-level read locks for negative dependence, and the
// commit point deferred until the maintenance process (conflict-set
// propagation) triggered by the transaction's updates completes.
package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"prodsys/internal/conflict"
	"prodsys/internal/joiner"
	"prodsys/internal/lang"
	"prodsys/internal/lock"
	"prodsys/internal/match"
	"prodsys/internal/metrics"
	"prodsys/internal/relation"
	"prodsys/internal/rules"
	"prodsys/internal/trace"
	"prodsys/internal/value"
	"prodsys/internal/wal"
)

// ErrStale marks a transaction whose supporting tuples vanished between
// selection and lock acquisition.
var ErrStale = errors.New("engine: instantiation stale")

// ErrBlocked marks a transaction whose negated condition re-verification
// (NOT EXISTS under a relation read lock) failed.
var ErrBlocked = errors.New("engine: negated condition no longer satisfied")

// ErrUnknownClass marks an operation naming a WM class absent from the
// catalog; test with errors.Is.
var ErrUnknownClass = errors.New("unknown class")

// ErrRulePanic marks a firing or maintenance unit that panicked and was
// contained: its WM effects were rolled back, its locks released, and
// the WAL never saw a commit. Test with errors.Is.
var ErrRulePanic = errors.New("engine: panic contained")

// ErrReadOnly marks a write rejected because a WAL failure (full disk,
// I/O error) flipped the engine into read-only degraded mode: queries
// keep serving from the in-memory relations, writes fail fast instead
// of diverging from the log. Test with errors.Is.
var ErrReadOnly = errors.New("engine: read-only mode")

// ErrClosed marks a write attempted after Shutdown. Test with errors.Is.
var ErrClosed = errors.New("engine: closed")

// Config tunes an Engine.
type Config struct {
	// Strategy selects among conflict-set instantiations in the serial
	// executor. Defaults to conflict.FIFO.
	Strategy conflict.Strategy
	// MaxFirings caps rule firings as a runaway guard. 0 means 10000.
	MaxFirings int
	// Workers sizes the concurrent executor's pool. 0 means 4.
	Workers int
	// Out receives write-action output. nil discards it.
	Out io.Writer
	// CommitEarly releases a transaction's locks before the maintenance
	// process finishes — the protocol violation the paper warns against.
	// Only for the failure-injection experiments; breaks serializability.
	CommitEarly bool
	// SetAtATime makes the serial executor fire, in one cycle, every
	// eligible instantiation of the selected rule — the set-oriented
	// execution of §5.1 ("a selected production will execute
	// simultaneously against all combinations of these sets of tuples").
	// Instantiations invalidated by earlier members of the batch are
	// skipped.
	SetAtATime bool
	// Tracer receives structured execution events from the engine, the
	// lock manager and (via the loader) the matcher and conflict set.
	// nil or disabled tracers cost a single predictable branch per emit
	// point.
	Tracer *trace.Tracer
	// TxnTimeout, when positive, bounds each firing transaction's lock
	// acquisition: a transaction still waiting past the deadline is
	// withdrawn from the lock queues, aborted, and retried with backoff —
	// the watchdog that keeps one wedged transaction from stalling the
	// scheduler. Zero disables the watchdog.
	TxnTimeout time.Duration
	// Seed seeds the engine's private RNG — the deadlock-victim retry
	// jitter — so retry schedules are reproducible run-to-run under a
	// fixed seed instead of drawing from the process-global source.
	Seed int64
}

// Result summarizes a run.
type Result struct {
	Firings int
	Cycles  int
	Halted  bool
	Aborts  int
	Panics  int // firings whose panic was contained and rolled back
}

// Engine couples a WM catalog, a matcher and an executor.
type Engine struct {
	set     *rules.Set
	db      *relation.DB
	matcher match.Matcher
	cs      *conflict.Set
	stats   *metrics.Set
	locks   *lock.Manager
	cfg     Config
	tr      *trace.Tracer

	// maintMu serializes WM+matcher maintenance: the matchers are
	// sequential structures, exactly the paper's observation that update
	// propagation is the non-interleavable portion of execution. Its
	// critical sections are counted in metrics.SerialOps.
	maintMu sync.Mutex
	halted  atomic.Bool
	nextTxn atomic.Uint64

	// readOnly flips (once, permanently) when a WAL failure leaves
	// durability unpromisable; closed flips at Shutdown. Both gate the
	// write entry points via checkWritable; reads are never gated.
	readOnly atomic.Bool
	roCause  atomic.Value // error: the failure that flipped readOnly
	closed   atomic.Bool

	// replica gates writes while the engine follows a primary's WAL
	// feed: local mutation comes only through the replication apply
	// path, never the public write entry points. Unlike readOnly it is
	// reversible — promotion flips it off.
	replica atomic.Bool

	// rng drives the deadlock-victim retry jitter, seeded from
	// Config.Seed so retry schedules are reproducible per engine.
	rngMu sync.Mutex
	rng   *rand.Rand

	// negClasses are the classes some rule is negatively dependent on;
	// inserts into them take a relation-level write lock (§5.2).
	negClasses map[string]bool

	// funcs holds the Go callbacks reachable from call actions.
	funcs map[string]CallFunc

	// wmObserver, when set, is invoked after every WM change has been
	// propagated to the matcher — the hook materialized views and external
	// triggers attach to.
	wmObserver func(inserted bool, class string, id relation.TupleID, t relation.Tuple)

	// wal, when attached, receives one committed unit at each commit
	// point: after the maintenance process completes, before locks
	// release (§5.2's deferred commit, made durable). Appends happen
	// under maintMu, so log order equals maintenance order.
	wal *wal.Log
}

// CallFunc is a Go procedure reachable from a rule's (call name args...)
// action — OPS5's escape hatch "for calling general procedures" (§3.1).
// The arguments are the action's terms resolved under the firing
// instantiation's bindings.
type CallFunc func(args []value.V) error

// RegisterFunc makes fn callable from rule RHS call actions under the
// given name. Registration must happen before running.
func (e *Engine) RegisterFunc(name string, fn CallFunc) {
	if e.funcs == nil {
		e.funcs = make(map[string]CallFunc)
	}
	e.funcs[name] = fn
}

// SetWMObserver registers a callback invoked after each WM change
// (insert: inserted=true; delete: inserted=false) under the maintenance
// lock. The callback must not re-enter the engine.
func (e *Engine) SetWMObserver(fn func(inserted bool, class string, id relation.TupleID, t relation.Tuple)) {
	e.wmObserver = fn
}

// New builds an engine. The db must contain a relation per class
// (rules.BuildDB). stats may be nil.
func New(set *rules.Set, db *relation.DB, matcher match.Matcher, stats *metrics.Set, cfg Config) *Engine {
	if cfg.Strategy == nil {
		cfg.Strategy = conflict.FIFO{}
	}
	if cfg.MaxFirings == 0 {
		cfg.MaxFirings = 10000
	}
	if cfg.Workers == 0 {
		cfg.Workers = 4
	}
	neg := map[string]bool{}
	for _, r := range set.Rules {
		for _, ce := range r.CEs {
			if ce.Negated {
				neg[ce.Class] = true
			}
		}
	}
	locks := lock.NewManager(stats)
	locks.SetTracer(cfg.Tracer)
	return &Engine{
		set:        set,
		db:         db,
		matcher:    matcher,
		cs:         matcher.ConflictSet(),
		stats:      stats,
		locks:      locks,
		cfg:        cfg,
		tr:         cfg.Tracer,
		negClasses: neg,
		rng:        rand.New(rand.NewSource(cfg.Seed)),
	}
}

// DB exposes the working-memory catalog.
func (e *Engine) DB() *relation.DB { return e.db }

// Matcher exposes the matcher.
func (e *Engine) Matcher() match.Matcher { return e.matcher }

// ConflictSet exposes the conflict set.
func (e *Engine) ConflictSet() *conflict.Set { return e.cs }

// Locks exposes the lock manager (for tests and experiments).
func (e *Engine) Locks() *lock.Manager { return e.locks }

// WithMaintenanceLock runs fn while holding the maintenance mutex, so
// fn sees a quiescent, transaction-consistent WM and matcher state with
// no firing or batch mid-maintenance. The integrity auditor runs its
// online audits under it, between firings.
func (e *Engine) WithMaintenanceLock(fn func()) {
	e.maintMu.Lock()
	defer e.maintMu.Unlock()
	fn()
}

// SetWAL attaches an open write-ahead log: every unit committed from
// here on — rule-firing transactions, batches, direct Assert/Retract —
// is appended at its commit point. Attach after recovery replay, so
// replayed units are not logged a second time.
func (e *Engine) SetWAL(l *wal.Log) { e.wal = l }

// WAL returns the attached write-ahead log, nil when durability is off.
func (e *Engine) WAL() *wal.Log { return e.wal }

// opRecorder accumulates the WM operations of one unit: the redo ops
// the commit point appends to the write-ahead log as one atomic record
// group (collected only while a WAL is attached), and the undo ops that
// reverse the unit if it panics before commit or its append never lands.
type opRecorder struct {
	redo bool // a WAL is attached: collect ops
	ops  []wal.Op
	undo []undoOp
}

// undoOp reverses one applied WM operation.
type undoOp struct {
	retract bool   // true: the original op asserted; undo by retracting
	class   string //
	id      relation.TupleID
	tuple   relation.Tuple // the deleted tuple, for re-insertion
}

// inserted and deleted record one landed storage write. Callers record
// between the storage write and matcher maintenance: a panic in
// maintenance must find the storage op already on the undo list. A nil
// recorder (replay, undo, exploration) records nothing.
func (r *opRecorder) inserted(class string, id relation.TupleID, t relation.Tuple) {
	if r == nil {
		return
	}
	r.undo = append(r.undo, undoOp{retract: true, class: class, id: id})
	if r.redo {
		r.ops = append(r.ops, wal.Op{Class: class, ID: id, Tuple: t})
	}
}

func (r *opRecorder) deleted(class string, id relation.TupleID, t relation.Tuple) {
	if r == nil {
		return
	}
	r.undo = append(r.undo, undoOp{class: class, id: id, tuple: t})
	if r.redo {
		r.ops = append(r.ops, wal.Op{Retract: true, Class: class, ID: id})
	}
}

// rollbackLocked reverse-applies the recorded undo ops, newest first,
// best-effort: each step runs storage and matcher maintenance and
// ignores errors — after a contained panic the matcher may have seen
// only part of the unit, so some reversals have nothing to reverse
// there. The integrity auditor is the backstop for any residue. Caller
// holds maintMu.
func (e *Engine) rollbackLocked(rec *opRecorder) {
	for i := len(rec.undo) - 1; i >= 0; i-- {
		u := rec.undo[i]
		func() {
			defer func() { _ = recover() }()
			if u.retract {
				_, _ = e.deleteLocked(u.class, u.id, nil)
			} else {
				_, _ = e.insertLocked(u.class, u.id, u.tuple, nil)
			}
		}()
	}
	rec.undo = nil
	rec.ops = nil
}

// contained runs fn with fault containment: a panic — in the RHS
// interpreter, a called Go function, matcher maintenance or a
// validation join — is recovered, counted, traced and surfaced as an
// ErrRulePanic instead of killing the worker.
func (e *Engine) contained(scope string, fn func() error) (err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		e.stats.Inc(metrics.PanicsContained)
		if e.tr.Enabled() {
			e.tr.Emit(trace.Event{
				Kind: trace.KindPanicContained, At: e.tr.Now(),
				CE: -1, Extra: fmt.Sprintf("%s: %v", scope, r),
			})
		}
		err = fmt.Errorf("%w: %s: %v", ErrRulePanic, scope, r)
	}()
	return fn()
}

// ReadOnly reports whether a WAL failure has flipped the engine into
// read-only degraded mode (queries served, writes rejected).
func (e *Engine) ReadOnly() bool { return e.readOnly.Load() }

// ReadOnlyCause returns the failure that flipped the engine read-only,
// nil while writable.
func (e *Engine) ReadOnlyCause() error {
	if err, ok := e.roCause.Load().(error); ok {
		return err
	}
	return nil
}

// enterReadOnly flips the engine read-only (idempotently) and returns
// cause wrapped in ErrReadOnly. Degradation is one-way: once the log
// cannot be trusted, only a restart (with recovery) resumes writes.
func (e *Engine) enterReadOnly(cause error) error {
	if e.readOnly.CompareAndSwap(false, true) {
		e.roCause.Store(cause)
		e.stats.Max(metrics.ReadOnlyMode, 1)
		if e.tr.Enabled() {
			e.tr.Emit(trace.Event{
				Kind: trace.KindReadOnly, At: e.tr.Now(),
				CE: -1, Extra: cause.Error(),
			})
		}
	}
	return fmt.Errorf("%w: %w", ErrReadOnly, cause)
}

// checkOpen rejects a closed engine with ErrClosed and a degraded one
// with ErrReadOnly (carrying the cause).
func (e *Engine) checkOpen() error {
	if e.closed.Load() {
		return ErrClosed
	}
	if e.readOnly.Load() {
		if cause := e.ReadOnlyCause(); cause != nil {
			return fmt.Errorf("%w: %w", ErrReadOnly, cause)
		}
		return ErrReadOnly
	}
	return nil
}

// checkWritable gates the write entry points: checkOpen, plus the
// replica gate (ErrReplica).
func (e *Engine) checkWritable() error {
	if err := e.checkOpen(); err != nil {
		return err
	}
	if e.replica.Load() {
		return ErrReplica
	}
	return nil
}

// Shutdown marks the engine closed (writes start failing with
// ErrClosed), detaches the WAL under the maintenance lock — so no
// commit point can race the handle — and closes it. Idempotent and safe
// for concurrent callers; later calls return nil.
func (e *Engine) Shutdown() error {
	e.closed.Store(true)
	e.maintMu.Lock()
	l := e.wal
	e.wal = nil
	e.maintMu.Unlock()
	if l == nil {
		return nil
	}
	return l.Close()
}

// unit describes one atomic write. Every write path — API batches and
// QUEL statements (ApplyDeltaContext), rule firings of both executors
// (fire), restored dumps (LogRestored) — only fills in a unit; commit
// is the one place that sequences locking, maintenance, logging and
// durability.
type unit struct {
	scope string // names the unit in a contained panic's error
	// key is a firing's instantiation key: the unit is logged as a txn
	// unit, so replay restores refraction. "" logs a batch unit.
	key   string
	txn   lock.TxnID // owner of locks
	locks []lockReq  // 2PL plan, in acquisition order
	// lockTimeout, when positive, bounds the acquisition of the whole
	// plan — the firing watchdog (Config.TxnTimeout).
	lockTimeout time.Duration
	// validate, when set, runs once the plan is held and before the
	// maintenance section; an error abandons the unit untouched.
	validate func() error
	// body mutates WM through rec under maintMu. An error leaves the
	// ops already applied in place: they were propagated to the
	// matcher, so they are real and are logged. A panic rolls them back.
	body func(rec *opRecorder) error
}

// commit is the engine's single write pipeline, the paper's §5.2 rule
// stated once: a unit's WM writes and the maintenance they trigger run
// inside a non-interleavable section, and the commit point comes only
// after that maintenance completes. The stages, in order:
//
//  1. checkWritable (closed, degraded and replica engines reject), then
//     ctx — cancellation is observed before any lock is acquired; a unit
//     holding its locks runs to completion
//  2. acquire the unit's 2PL lock plan
//  3. validate under those locks
//  4. maintMu.Lock            ┐
//  5. body, panic-contained,  │ runLocked: the
//     recording redo + undo   │ non-interleavable
//  6. WAL append              │ section
//  7. due checkpoint          │
//  8. maintMu.Unlock          ┘
//  9. early lock release: the unit's position in the log is fixed, so
//     its locks drop before the (possibly group-coalesced) fsync wait.
//     The log is sequential, so a later unit durable implies this one.
//  10. WaitDurable, outside maintMu so concurrent committers pile onto
//     one leader fsync. A group-sync failure degrades the engine
//     read-only: the unit is applied and logged, but durability can no
//     longer be promised for anyone after it.
func (e *Engine) commit(ctx context.Context, u unit) error {
	if err := e.checkWritable(); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	held := len(u.locks) > 0
	release := func() {
		if held {
			held = false
			e.locks.Release(u.txn)
		}
	}
	defer release() // every exit drops the locks, contained panics included
	deadline := time.Now().Add(u.lockTimeout)
	for _, req := range u.locks {
		var rem time.Duration // 0 waits indefinitely
		if u.lockTimeout > 0 {
			// The whole plan shares one watchdog deadline; a unit whose
			// earlier waits ate the budget fails fast on the rest.
			rem = max(time.Until(deadline), time.Nanosecond)
		}
		if err := e.locks.AcquireTimeout(u.txn, req.tgt, req.mode, rem); err != nil {
			return err
		}
	}
	if u.validate != nil {
		if err := e.contained(u.scope, u.validate); err != nil {
			return err
		}
	}
	l, seq, err := e.runLocked(u)
	release()
	if l != nil {
		if derr := l.WaitDurable(seq); derr != nil {
			derr = e.enterReadOnly(derr)
			if err == nil {
				err = derr
			}
		}
	}
	return err
}

// runLocked is commit's non-interleavable section (stages 4–8). It
// returns the log handle and the unit's sequence for the post-unlock
// durable wait (nil when nothing was appended).
func (e *Engine) runLocked(u unit) (*wal.Log, uint64, error) {
	e.maintMu.Lock()
	defer e.maintMu.Unlock()
	rec := &opRecorder{redo: e.wal != nil}
	err := e.contained(u.scope, func() error { return u.body(rec) })
	if errors.Is(err, ErrRulePanic) {
		// Rollback before log: a panicked unit is undone through storage,
		// matcher and observer, and the WAL never sees it.
		e.rollbackLocked(rec)
		return nil, 0, err
	}
	// Whatever stays applied is logged, so memory and log agree. A unit
	// that applied nothing is logged only as a completed firing: its
	// key must survive a restart to keep the instantiation refracted.
	var l *wal.Log
	var seq uint64
	if e.wal != nil && (len(rec.ops) > 0 || (err == nil && u.key != "")) {
		var lerr error
		l, seq, lerr = e.logLocked(u.key, rec)
		if err == nil {
			err = lerr
		}
	}
	// Past the last rollback point (an append that never landed empties
	// rec.undo): fired keys built on the unit's deleted tuples can never
	// be derived again, so their refraction marks go.
	for _, op := range rec.undo {
		if !op.retract {
			e.cs.ForgetTuple(op.class, op.id)
		}
	}
	return l, seq, err
}

// logLocked appends one committed unit at the §5.2 commit point and
// runs a due checkpoint compaction; maintMu must be held. Failure
// handling is the graceful-degradation policy:
//
//   - Append failure with no records landed (LastSeq unchanged): the
//     unit never reached the log, so its WM effects are rolled back via
//     rec and the engine flips read-only — memory keeps agreeing with
//     the log.
//   - Append failure after records landed (the inline sync of
//     SyncAlways/SyncInterval), or a checkpoint failure: the unit IS in
//     the log, so memory is kept and only the degradation flag flips.
func (e *Engine) logLocked(key string, rec *opRecorder) (*wal.Log, uint64, error) {
	l := e.wal
	before := l.LastSeq()
	var aerr error
	if key == "" {
		aerr = l.AppendBatch(rec.ops)
	} else {
		aerr = l.AppendTxn(key, rec.ops)
	}
	if aerr != nil {
		if l.LastSeq() == before {
			e.rollbackLocked(rec)
			if errors.Is(aerr, wal.ErrClosed) && e.closed.Load() {
				return nil, 0, fmt.Errorf("%w: %w", ErrClosed, aerr)
			}
		}
		return nil, 0, e.enterReadOnly(aerr)
	}
	seq := l.LastSeq()
	if l.CheckpointDue() {
		if cerr := l.Checkpoint(e.db.Dump); cerr != nil {
			// The unit is already committed in the log; the failed
			// compaction only takes future writes down.
			return nil, 0, e.enterReadOnly(cerr)
		}
	}
	return l, seq, nil
}

// Checkpoint forces a WAL checkpoint compaction under the maintenance
// lock. A no-op without an attached WAL.
func (e *Engine) Checkpoint() error {
	if e.wal == nil {
		return nil
	}
	e.maintMu.Lock()
	defer e.maintMu.Unlock()
	return e.wal.Checkpoint(e.db.Dump)
}

// Replay applies recovered WAL units through storage and matcher
// maintenance (applyLogged) and returns the number of WM operations
// applied. Call before SetWAL, so replayed units are not re-logged.
func (e *Engine) Replay(txns []wal.Txn) (int, error) {
	e.maintMu.Lock()
	defer e.maintMu.Unlock()
	n, err := e.applyLogged(txns)
	if err != nil {
		return n, fmt.Errorf("engine: replay: %w", err)
	}
	return n, nil
}

// applyLogged is the one apply loop for logged units — recovery replay
// and replica apply both run it, so a replica's derived state is the
// same function of the same log as the primary's. Assertions restore
// their original tuple IDs (so conflict-set keys and recency survive),
// retractions delete, and each rule-firing unit's instantiation key is
// re-marked fired before its ops run, as fire does, restoring
// refraction state. It returns the number of WM operations applied.
// Caller holds maintMu.
func (e *Engine) applyLogged(txns []wal.Txn) (int, error) {
	ops := 0
	for _, t := range txns {
		if !t.Batch && t.Key != "" {
			e.cs.MarkFired(t.Key)
		}
		for _, op := range t.Ops {
			var err error
			if op.Retract {
				if _, err = e.deleteLocked(op.Class, op.ID, nil); err == nil {
					e.cs.ForgetTuple(op.Class, op.ID)
				}
			} else {
				_, err = e.insertLocked(op.Class, op.ID, op.Tuple, nil)
			}
			if err != nil {
				return ops, err
			}
			ops++
		}
	}
	return ops, nil
}

// insertLocked is the one WM insert primitive: it stores t in class —
// under id when nonzero (replay, replica apply and undo reproduce the
// logged ID), under a fresh ID otherwise — and runs the maintenance
// process. rec records the redo and undo ops as soon as the storage
// write lands — before matcher maintenance — so a maintenance panic
// still rolls the storage change back. Caller holds maintMu.
func (e *Engine) insertLocked(class string, id relation.TupleID, t relation.Tuple, rec *opRecorder) (relation.TupleID, error) {
	rel, ok := e.db.Get(class)
	if !ok {
		return 0, fmt.Errorf("engine: %w %s", ErrUnknownClass, class)
	}
	t0 := e.tr.Now()
	var err error
	if id == 0 {
		id, err = rel.Insert(t)
	} else {
		err = rel.InsertAt(id, t)
	}
	if err != nil {
		return 0, err
	}
	stored, _ := rel.Get(id)
	rec.inserted(class, id, stored)
	e.stats.Inc(metrics.SerialOps)
	e.stats.Inc(metrics.Counter("updates_" + class))
	if err := e.matcher.Insert(class, id, stored); err != nil {
		return 0, err
	}
	if e.tr.Enabled() {
		// Dur covers the store plus the whole maintenance process.
		e.tr.Emit(trace.Event{
			Kind: trace.KindTupleInsert, At: t0, Dur: e.tr.Now() - t0,
			CE: -1, Class: class, ID: uint64(id),
		})
	}
	if e.wmObserver != nil {
		e.wmObserver(true, class, id, stored)
	}
	return id, nil
}

// deleteLocked is the one WM delete primitive, insertLocked's mirror:
// it removes the tuple, records it, runs the maintenance process and
// returns the deleted tuple. Caller holds maintMu.
func (e *Engine) deleteLocked(class string, id relation.TupleID, rec *opRecorder) (relation.Tuple, error) {
	rel, ok := e.db.Get(class)
	if !ok {
		return nil, fmt.Errorf("engine: %w %s", ErrUnknownClass, class)
	}
	t0 := e.tr.Now()
	t, err := rel.Delete(id)
	if err != nil {
		return nil, err
	}
	rec.deleted(class, id, t)
	e.stats.Inc(metrics.SerialOps)
	e.stats.Inc(metrics.Counter("updates_" + class))
	if err := e.matcher.Delete(class, id, t); err != nil {
		return nil, err
	}
	if e.tr.Enabled() {
		e.tr.Emit(trace.Event{
			Kind: trace.KindTupleDelete, At: t0, Dur: e.tr.Now() - t0,
			CE: -1, Class: class, ID: uint64(id),
		})
	}
	if e.wmObserver != nil {
		e.wmObserver(false, class, id, t)
	}
	return t, nil
}

// Assert inserts a WM element and runs the maintenance process: a
// one-op ApplyDelta. It is the entry point for initial facts and
// external updates; with a WAL attached the change is logged (and
// synced per policy) before Assert returns.
func (e *Engine) Assert(class string, t relation.Tuple) (relation.TupleID, error) {
	ids, err := e.ApplyDelta([]DeltaOp{{Class: class, Tuple: t}})
	if len(ids) == 0 {
		return 0, err
	}
	return ids[0], err
}

// Retract deletes a WM element and runs the maintenance process: a
// one-op ApplyDelta.
func (e *Engine) Retract(class string, id relation.TupleID) error {
	_, err := e.ApplyDelta([]DeltaOp{{Retract: true, Class: class, ID: id}})
	return err
}

// LoadFacts asserts the facts of a parsed program, one unit per fact.
func (e *Engine) LoadFacts(prog *lang.Program) error {
	for _, f := range prog.Facts {
		class, tup, err := rules.FactTuple(e.set, f)
		if err != nil {
			return err
		}
		if _, err := e.Assert(class, tup); err != nil {
			return err
		}
	}
	return nil
}

// LogRestored commits one redo-only unit covering tuples restored
// outside the engine's own paths (System.RestoreWM), so a later
// recovery reproduces them under their original IDs. A no-op without a
// WAL.
func (e *Engine) LogRestored(rts []relation.RestoredTuple) error {
	if e.wal == nil || len(rts) == 0 {
		return nil
	}
	return e.commit(context.Background(), unit{scope: "restore", body: func(rec *opRecorder) error {
		rec.ops = make([]wal.Op, len(rts))
		for i, rt := range rts {
			rec.ops[i] = wal.Op{Class: rt.Class, ID: rt.ID, Tuple: rt.Tuple}
		}
		return nil
	}})
}

// applyActions interprets the RHS of a fired instantiation op at a
// time, so a modify reads the live tuple its own earlier actions left.
// The caller holds maintMu for the whole firing: no other unit can land
// between two actions, or between the retract and assert halves of one
// modify. rec collects the applied WM ops for the firing's single
// commit-point WAL append. Returns whether a halt action ran.
func (e *Engine) applyActions(in *conflict.Instantiation, rec *opRecorder) (bool, error) {
	b := in.Bindings.Clone()
	halted := false
	for _, act := range in.Rule.Actions {
		switch act.Kind {
		case lang.ActMake:
			schema := e.set.Classes[act.Class]
			t := make(relation.Tuple, schema.Arity())
			for _, as := range act.Assigns {
				pos, _ := schema.Pos(as.Attr)
				v, err := rules.ResolveTerm(as.Term, b)
				if err != nil {
					return halted, fmt.Errorf("rule %s make: %w", in.Rule.Name, err)
				}
				t[pos] = v
			}
			if _, err := e.insertLocked(act.Class, 0, t, rec); err != nil {
				return halted, err
			}
		case lang.ActRemove:
			ceIdx := act.CE - 1
			// The element may already be gone (removed twice by one RHS,
			// or by a concurrent transaction); OPS5 ignores this.
			_, _ = e.deleteLocked(in.Rule.CEs[ceIdx].Class, in.TupleIDs[ceIdx], rec)
		case lang.ActModify:
			ceIdx := act.CE - 1
			id := in.TupleIDs[ceIdx]
			class := in.Rule.CEs[ceIdx].Class
			rel, err := e.db.Lookup(class)
			if err != nil {
				return halted, fmt.Errorf("rule %s modify: %w", in.Rule.Name, err)
			}
			old, ok := rel.Get(id)
			if !ok {
				continue
			}
			t := old.Clone()
			for _, as := range act.Assigns {
				pos, _ := in.Rule.CEs[ceIdx].Schema.Pos(as.Attr)
				v, err := rules.ResolveTerm(as.Term, b)
				if err != nil {
					return halted, fmt.Errorf("rule %s modify: %w", in.Rule.Name, err)
				}
				t[pos] = v
			}
			// A modification is a deletion followed by an insertion (§3.1).
			if _, err := e.deleteLocked(class, id, rec); err != nil {
				continue
			}
			if _, err := e.insertLocked(class, 0, t, rec); err != nil {
				return halted, err
			}
		case lang.ActWrite:
			if e.cfg.Out != nil {
				parts := make([]string, 0, len(act.Args))
				for _, arg := range act.Args {
					v, err := rules.ResolveTerm(arg, b)
					if err != nil {
						return halted, fmt.Errorf("rule %s write: %w", in.Rule.Name, err)
					}
					parts = append(parts, v.String())
				}
				fmt.Fprintln(e.cfg.Out, strings.Join(parts, " "))
			}
		case lang.ActBind:
			v, err := rules.ResolveTerm(act.Term, b)
			if err != nil {
				return halted, fmt.Errorf("rule %s bind: %w", in.Rule.Name, err)
			}
			b[act.Var] = v
		case lang.ActCall:
			fn, ok := e.funcs[act.Func]
			if !ok {
				return halted, fmt.Errorf("rule %s: call of unregistered function %q", in.Rule.Name, act.Func)
			}
			args := make([]value.V, len(act.Args))
			for i, arg := range act.Args {
				v, err := rules.ResolveTerm(arg, b)
				if err != nil {
					return halted, fmt.Errorf("rule %s call %s: %w", in.Rule.Name, act.Func, err)
				}
				args[i] = v
			}
			if err := fn(args); err != nil {
				return halted, fmt.Errorf("rule %s call %s: %w", in.Rule.Name, act.Func, err)
			}
		case lang.ActHalt:
			halted = true
			e.halted.Store(true)
		}
	}
	return halted, nil
}

// ApplyForExploration fires one instantiation's actions immediately,
// outside any executor and without locking — the primitive the
// experiment harness uses to exhaustively enumerate serial schedules
// (every possible Select choice of §2.1). Exploration firings are not
// WAL-logged; the harness explores alternatives, it does not commit.
func (e *Engine) ApplyForExploration(in *conflict.Instantiation) (halted bool, err error) {
	e.maintMu.Lock()
	defer e.maintMu.Unlock()
	return e.applyActions(in, nil)
}

// errAlreadyFired aborts a firing whose instantiation another executor
// fired first; it classifies as ErrStale.
var errAlreadyFired = fmt.Errorf("%w: already fired", ErrStale)

// fire commits one firing of in as a unit. u carries what the executor
// adds — the concurrent executor's lock plan and validation, nothing
// for the serial one; fire supplies the firing key and the body: the
// refraction check-and-mark, then the RHS, all inside the maintenance
// section, so an instantiation fires at most once across executors.
// A panicked firing stays marked (quarantined, so a panic cannot loop).
func (e *Engine) fire(ctx context.Context, in *conflict.Instantiation, u unit) (halted bool, err error) {
	u.scope, u.key = "rule "+in.Rule.Name, in.Key()
	u.body = func(rec *opRecorder) (err error) {
		if e.cs.HasFired(u.key) {
			return errAlreadyFired
		}
		e.cs.MarkFired(u.key)
		if e.tr.Enabled() {
			t0 := e.tr.Now()
			defer func() {
				e.tr.Emit(trace.Event{
					Kind: trace.KindRuleFire, At: t0, Dur: e.tr.Now() - t0,
					Rule: in.Rule.Name, CE: -1, ID: uint64(u.txn), Count: 1, Extra: u.key,
				})
			}()
		}
		halted, err = e.applyActions(in, rec)
		return err
	}
	err = e.commit(ctx, u)
	return halted, err
}

// RunSerial executes the OPS5 recognize-act cycle: Match (incremental,
// already maintained), Select one instantiation, Act, repeat until the
// conflict set empties, a halt fires, or the firing cap is reached.
func (e *Engine) RunSerial() (Result, error) {
	return e.RunSerialContext(context.Background())
}

// RunSerialContext is RunSerial honoring ctx: cancellation is observed
// between firings (a firing in progress completes).
func (e *Engine) RunSerialContext(ctx context.Context) (Result, error) {
	var res Result
	e.halted.Store(false)
	for res.Firings < e.cfg.MaxFirings {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		if err := e.checkWritable(); err != nil {
			return res, err
		}
		in := e.cs.Select(e.cfg.Strategy)
		if in == nil {
			return res, nil
		}
		res.Cycles++
		batch := []*conflict.Instantiation{in}
		if e.cfg.SetAtATime {
			for _, other := range e.cs.SelectAll() {
				if other.Rule == in.Rule && other.Key() != in.Key() {
					batch = append(batch, other)
				}
			}
		}
		for _, bi := range batch {
			if e.cs.HasFired(bi.Key()) {
				continue
			}
			if bi != in && !e.cs.Contains(bi.Key()) {
				continue // retracted by an earlier member of the batch
			}
			// Each firing is one unit with no locks: the maintenance
			// section alone serializes it against concurrent commits.
			halted, err := e.fire(ctx, bi, unit{})
			if errors.Is(err, ErrRulePanic) {
				// Contained: the firing's effects were rolled back and the
				// cycle keeps serving.
				res.Panics++
				continue
			}
			if errors.Is(err, ErrStale) {
				continue
			}
			if err != nil {
				return res, err
			}
			res.Firings++
			e.stats.Inc(metrics.RuleFirings)
			if halted {
				res.Halted = true
				return res, nil
			}
			if res.Firings >= e.cfg.MaxFirings {
				break
			}
		}
	}
	return res, fmt.Errorf("engine: firing cap %d reached", e.cfg.MaxFirings)
}

// lockPlan computes the 2PL acquisition list for one instantiation, in a
// deterministic global order (reducing, not eliminating, deadlocks).
type lockReq struct {
	tgt  lock.Target
	mode lock.Mode
}

func (e *Engine) lockPlan(in *conflict.Instantiation) []lockReq {
	modes := map[lock.Target]lock.Mode{}
	want := func(tgt lock.Target, mode lock.Mode) {
		if cur, ok := modes[tgt]; !ok || (cur == lock.Shared && mode == lock.Exclusive) {
			modes[tgt] = mode
		}
	}
	// Read locks on every matched tuple (§5.2).
	for i, ce := range in.Rule.CEs {
		if ce.Negated {
			// Negative dependence: relation-level read lock.
			want(lock.RelationTarget(ce.Class), lock.Shared)
			continue
		}
		want(lock.TupleTarget(ce.Class, in.TupleIDs[i]), lock.Shared)
	}
	for _, act := range in.Rule.Actions {
		switch act.Kind {
		case lang.ActRemove, lang.ActModify:
			ce := in.Rule.CEs[act.CE-1]
			want(lock.TupleTarget(ce.Class, in.TupleIDs[act.CE-1]), lock.Exclusive)
			if e.negClasses[ce.Class] {
				// Deletions (a modify's included) also change NOT EXISTS results.
				want(lock.RelationTarget(ce.Class), lock.Exclusive)
			}
		case lang.ActMake:
			if e.negClasses[act.Class] {
				// "T_j will always need a write lock on R_i before it can
				// be executed" for inserts into negatively depended-upon
				// relations (the phantom side of §5.2).
				want(lock.RelationTarget(act.Class), lock.Exclusive)
			}
		}
	}
	plan := make([]lockReq, 0, len(modes))
	for tgt, mode := range modes {
		plan = append(plan, lockReq{tgt: tgt, mode: mode})
	}
	sort.Slice(plan, func(i, j int) bool { return plan[i].tgt.String() < plan[j].tgt.String() })
	return plan
}

// runTxn executes one instantiation as a transaction: the firing unit
// plus the 2PL lock plan and the validation under it. The returned
// error classifies aborts.
func (e *Engine) runTxn(ctx context.Context, in *conflict.Instantiation) error {
	txn := lock.TxnID(e.nextTxn.Add(1))
	plan := e.lockPlan(in)
	t0 := e.tr.Now()
	_, err := e.fire(ctx, in, unit{txn: txn, locks: plan, lockTimeout: e.cfg.TxnTimeout, validate: func() error {
		if e.tr.Enabled() {
			e.tr.Emit(trace.Event{
				Kind: trace.KindLockAcquire, At: t0, Dur: e.tr.Now() - t0,
				Rule: in.Rule.Name, CE: -1, ID: uint64(txn), Count: int64(len(plan)),
			})
		}
		if e.cfg.CommitEarly {
			// Protocol violation: release locks before acting/maintaining.
			e.locks.Release(txn)
		}
		return e.stillApplicable(in)
	}})
	// Every aborted attempt is counted here, so the TxnAborts counter
	// agrees with Result.Aborts and the txn_abort event stream: the lock
	// manager's abortLocked cannot know whether a deadlock victim belongs
	// to a rule-firing transaction.
	reason := ""
	switch {
	case err == nil:
	case errors.Is(err, lock.ErrTimeout):
		reason = "timeout"
	case errors.Is(err, lock.ErrAborted):
		reason = "deadlock"
	case errors.Is(err, ErrBlocked):
		reason = "blocked"
	case errors.Is(err, errAlreadyFired):
		reason = "already fired"
	case errors.Is(err, ErrStale):
		reason = "stale"
	case errors.Is(err, ErrRulePanic):
		reason = "panic"
	}
	if reason != "" {
		e.stats.Inc(metrics.TxnAborts)
		if e.tr.Enabled() {
			e.tr.Emit(trace.Event{
				Kind: trace.KindTxnAbort, At: e.tr.Now(),
				Rule: in.Rule.Name, CE: -1, ID: uint64(txn), Extra: reason,
			})
		}
	}
	if err != nil {
		return err
	}
	e.stats.Inc(metrics.RuleFirings)
	e.stats.Inc(metrics.TxnCommits)
	if e.tr.Enabled() {
		e.tr.Emit(trace.Event{
			Kind: trace.KindTxnCommit, At: e.tr.Now(),
			Rule: in.Rule.Name, CE: -1, ID: uint64(txn),
		})
	}
	return nil
}

// stillApplicable is a transaction's validation, run under its lock
// plan: matched tuples must still exist unchanged (else ErrStale);
// negated conditions must still be NOT EXISTS, checked under the
// relation read lock (else ErrBlocked).
func (e *Engine) stillApplicable(in *conflict.Instantiation) error {
	for i, ce := range in.Rule.CEs {
		if ce.Negated {
			if joiner.Exists(e.db, ce, in.Bindings, e.stats) {
				return ErrBlocked
			}
			continue
		}
		rel, err := e.db.Lookup(ce.Class)
		if err != nil {
			return ErrStale
		}
		if cur, ok := rel.Get(in.TupleIDs[i]); !ok || !cur.Equal(in.Tuples[i]) {
			return ErrStale
		}
	}
	return nil
}

// Deadlock-victim retry bounds: exponential backoff from
// txnBackoffBase, capped at txnBackoffCap, at most maxTxnRetries
// attempts after the first. The cap keeps a pathological workload from
// turning retries into a livelock of sleeps; the jitter de-synchronizes
// victims that would otherwise collide again.
const (
	maxTxnRetries  = 16
	txnBackoffBase = 50 * time.Microsecond
	txnBackoffCap  = 5 * time.Millisecond
)

// retryBackoff returns the jittered exponential delay before retry
// attempt n (1-based): uniform in [d/2, 3d/2) around the nominal d.
// The jitter draws from the engine's seeded RNG, keeping retry
// schedules reproducible under a fixed Config.Seed.
func (e *Engine) retryBackoff(n int) time.Duration {
	d := txnBackoffBase << uint(n-1)
	if d <= 0 || d > txnBackoffCap {
		d = txnBackoffCap
	}
	e.rngMu.Lock()
	j := e.rng.Int63n(int64(d))
	e.rngMu.Unlock()
	return d/2 + time.Duration(j)
}

// RunConcurrent executes the conflict set in rounds: each round takes the
// current applicable set Ψ and fires every member as a transaction on the
// worker pool; the next round sees the conflict set produced by those
// firings (Ψ' of §5.2). Stale and blocked transactions abort harmlessly.
func (e *Engine) RunConcurrent() (Result, error) {
	return e.RunConcurrentContext(context.Background())
}

// RunConcurrentContext is RunConcurrent honoring ctx: cancellation is
// observed between rounds and before each transaction acquires locks;
// transactions already holding locks run to completion.
func (e *Engine) RunConcurrentContext(ctx context.Context) (Result, error) {
	var res Result
	e.halted.Store(false)
	var firstErr error
	var errMu sync.Mutex
	for res.Firings < e.cfg.MaxFirings {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		if err := e.checkWritable(); err != nil {
			return res, err
		}
		if e.halted.Load() {
			res.Halted = true
			return res, nil
		}
		batch := e.cs.SelectAll()
		if len(batch) == 0 {
			return res, nil
		}
		if len(batch) > e.cfg.MaxFirings-res.Firings {
			batch = batch[:e.cfg.MaxFirings-res.Firings]
		}
		res.Cycles++
		var fired, aborted, panicked atomic.Int64
		work := make(chan *conflict.Instantiation)
		var wg sync.WaitGroup
		for w := 0; w < e.cfg.Workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for in := range work {
					if e.halted.Load() {
						continue
					}
					err := e.runTxn(ctx, in)
					// A deadlock victim — or a watchdog timeout — is retried
					// with bounded jittered backoff rather than dropped: its
					// instantiation is still applicable (nothing invalidated
					// it — it lost a cycle tie-break or outwaited the
					// deadline), and dropping it strands the firing until the
					// next round, or forever when no next round comes. Each
					// aborted attempt still counts as an abort, keeping
					// Result.Aborts in lock-step with the TxnAborts counter
					// and the txn_abort event stream.
					for attempt := 1; (errors.Is(err, lock.ErrAborted) || errors.Is(err, lock.ErrTimeout)) &&
						attempt <= maxTxnRetries && !e.halted.Load() && ctx.Err() == nil; attempt++ {
						aborted.Add(1)
						e.stats.Inc(metrics.TxnRetries)
						time.Sleep(e.retryBackoff(attempt))
						err = e.runTxn(ctx, in)
					}
					switch {
					case err == nil:
						fired.Add(1)
					case errors.Is(err, ErrRulePanic):
						// Contained: effects rolled back, locks released,
						// instantiation quarantined; the pool keeps serving.
						aborted.Add(1)
						panicked.Add(1)
					case errors.Is(err, ErrStale), errors.Is(err, ErrBlocked),
						errors.Is(err, lock.ErrAborted), errors.Is(err, lock.ErrTimeout):
						aborted.Add(1)
					default:
						errMu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						errMu.Unlock()
					}
				}
			}()
		}
		for _, in := range batch {
			work <- in
		}
		close(work)
		wg.Wait()
		if firstErr != nil {
			return res, firstErr
		}
		res.Firings += int(fired.Load())
		res.Aborts += int(aborted.Load())
		res.Panics += int(panicked.Load())
		if fired.Load() == 0 && aborted.Load() == 0 {
			return res, nil
		}
		if fired.Load() == 0 {
			// Every member aborted (stale or blocked). Their retraction is
			// handled by maintenance; if the conflict set did not change,
			// stop rather than spin.
			remaining := e.cs.SelectAll()
			if len(remaining) == len(batch) {
				return res, nil
			}
		}
	}
	return res, fmt.Errorf("engine: firing cap %d reached", e.cfg.MaxFirings)
}

// SnapshotWM renders the whole working memory canonically: one line per
// live tuple, sorted — the state-equivalence test of §5.2 compares these.
func (e *Engine) SnapshotWM() string {
	var lines []string
	for _, name := range e.db.Names() {
		rel, err := e.db.Lookup(name)
		if err != nil {
			continue // dropped since Names() was taken
		}
		rel.Scan(func(_ relation.TupleID, t relation.Tuple) bool {
			lines = append(lines, name+t.String())
			return true
		})
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
