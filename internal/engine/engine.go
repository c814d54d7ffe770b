// Package engine drives production-system execution: the recognize-act
// cycle of §2.1 (Match, Select, Act), run by one loop on the caller's
// goroutine. The entry points differ only in the batch each cycle fires:
//
//   - RunSerial reproduces OPS5: the conflict-resolution strategy picks
//     one instantiation, and its RHS runs to completion before the next
//     Match;
//   - RunSerial under Config.SetAtATime fires the picked rule's every
//     eligible instantiation (§5.1);
//   - RunConcurrent fires a §5.2 round: every member of the applicable
//     set Ψ is a transaction, and the next round sees Ψ'.
//
// Every member fires through one validated firing. Its validation (the
// instantiation is still in the conflict set and not yet fired), its
// actions and the maintenance they trigger run inside one
// non-interleavable section, so its read set holds while it acts and its
// commit point follows the maintenance its updates trigger. A round is
// therefore one serial order of its members by construction. A cycle's
// firings share one durable wait: under group sync, one fsync.
package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"prodsys/internal/conflict"
	"prodsys/internal/lang"
	"prodsys/internal/match"
	"prodsys/internal/metrics"
	"prodsys/internal/relation"
	"prodsys/internal/rules"
	"prodsys/internal/trace"
	"prodsys/internal/value"
	"prodsys/internal/wal"
)

// ErrStale marks a firing whose instantiation left the conflict set — a
// supporting tuple was deleted or a negated condition gained a blocker —
// or already fired, between selection and the firing's turn in the
// maintenance section. The firing applies nothing.
var ErrStale = errors.New("engine: instantiation stale")

// ErrUnknownClass marks an operation naming a WM class absent from the
// catalog; test with errors.Is.
var ErrUnknownClass = errors.New("unknown class")

// ErrRulePanic marks a firing or maintenance unit that panicked and was
// contained: its WM effects were rolled back and the WAL never saw a
// commit. Test with errors.Is.
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
	// Strategy selects among conflict-set instantiations in RunSerial.
	// Defaults to conflict.FIFO.
	Strategy conflict.Strategy
	// MaxFirings caps rule firings as a runaway guard. 0 means 10000.
	MaxFirings int
	// Out receives write-action output. nil discards it.
	Out io.Writer
	// SetAtATime makes RunSerial fire, in one cycle, every
	// eligible instantiation of the selected rule — the set-oriented
	// execution of §5.1 ("a selected production will execute
	// simultaneously against all combinations of these sets of tuples").
	// Instantiations invalidated by earlier members of the batch are
	// skipped.
	SetAtATime bool
	// Tracer receives structured execution events from the engine and
	// (via the loader) the matcher and conflict set. nil or disabled
	// tracers cost a single predictable branch per emit point.
	Tracer *trace.Tracer
}

// Result summarizes a run.
type Result struct {
	Firings int
	Cycles  int
	Halted  bool
	Aborts  int
	Panics  int // firings whose panic was contained and rolled back
}

// Engine couples a WM catalog, a matcher and the recognize-act loop.
type Engine struct {
	set     *rules.Set
	db      *relation.DB
	matcher match.Matcher
	cs      *conflict.Set
	stats   *metrics.Set
	cfg     Config
	tr      *trace.Tracer

	// maintMu serializes WM+matcher maintenance: the matchers are
	// sequential structures, exactly the paper's observation that update
	// propagation is the non-interleavable portion of execution. It is
	// the engine's one serialization point: every write unit, a firing's
	// validation included, runs inside it. Its critical sections are
	// counted in metrics.SerialOps.
	maintMu sync.Mutex
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

	// updateCells holds each declared class's updates_<class> counter,
	// resolved once so a WM change increments it without a lookup by name.
	updateCells map[string]*metrics.Cell

	// funcs holds the Go callbacks reachable from call actions.
	funcs map[string]CallFunc

	// wmObserver, when set, receives each unit's net delta after the
	// matcher — the hook materialized views and triggers attach to.
	wmObserver func(*relation.Delta)

	// delta collects the current unit's net WM change as its writes land;
	// maintainLocked hands it on and empties it for the next unit.
	delta *relation.Delta

	// wal, when attached, receives one committed unit at each commit
	// point: after the maintenance process completes (§5.2's deferred
	// commit, made durable). Appends happen under maintMu, so log order
	// equals maintenance order.
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

// SetWMObserver registers a callback invoked with each write unit's net
// delta, under the maintenance lock, after the matcher has maintained
// it. The delta is lent for the call. The callback must not re-enter
// the engine. While other goroutines may commit, call it inside
// WithMaintenanceLock.
func (e *Engine) SetWMObserver(fn func(*relation.Delta)) {
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
	updates := make(map[string]*metrics.Cell, len(set.Classes))
	for class := range set.Classes {
		updates[class] = stats.Named("updates_" + class)
	}
	return &Engine{
		set:         set,
		db:          db,
		matcher:     matcher,
		cs:          matcher.ConflictSet(),
		stats:       stats,
		cfg:         cfg,
		tr:          cfg.Tracer,
		updateCells: updates,
		delta:       relation.NewDelta(),
	}
}

// updates returns the updates_<class> counter of class.
func (e *Engine) updates(class string) *metrics.Cell {
	if c, ok := e.updateCells[class]; ok {
		return c
	}
	return e.stats.Named("updates_" + class)
}

// DB exposes the working-memory catalog.
func (e *Engine) DB() *relation.DB { return e.db }

// Matcher exposes the matcher. While other goroutines may audit with
// repair, call it inside WithMaintenanceLock.
func (e *Engine) Matcher() match.Matcher { return e.matcher }

// SetMatcher replaces the matcher with m, which must maintain the
// engine's conflict set over the engine's WM — the integrity audit's
// repair installs a fresh one this way. Call it inside
// WithMaintenanceLock.
func (e *Engine) SetMatcher(m match.Matcher) { e.matcher = m }

// ConflictSet exposes the conflict set.
func (e *Engine) ConflictSet() *conflict.Set { return e.cs }

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
	// maintained is set once the unit's maintenance pass has begun: only
	// then does a rollback owe the matcher an inverse delta.
	maintained bool
}

// undoOp reverses one applied WM operation.
type undoOp struct {
	retract bool   // true: the original op asserted; undo by retracting
	class   string //
	id      relation.TupleID
	tuple   relation.Tuple // the deleted tuple, for re-insertion
}

// rollbackLocked reverses a unit that will not commit: its storage
// writes are undone newest first and, only if the unit's maintenance
// pass had begun, the matcher and observer get the inverse delta once —
// so a panicking RHS never touches matcher state. The inverse pass is
// best-effort: after a panic inside maintenance the matcher may have
// seen only part of the unit, so some reversals have nothing to reverse
// there. The integrity auditor is the backstop for any residue. Caller
// holds maintMu.
func (e *Engine) rollbackLocked(rec *opRecorder) {
	e.delta.Reset() // the forward delta, never or partly maintained
	for i := len(rec.undo) - 1; i >= 0; i-- {
		u := rec.undo[i]
		if u.retract {
			_, _ = e.deleteLocked(u.class, u.id, nil)
		} else {
			_, _ = e.insertLocked(u.class, u.id, u.tuple, nil)
		}
	}
	if rec.maintained {
		func() {
			defer func() { _ = recover() }()
			_ = e.maintainLocked()
		}()
	}
	e.delta.Reset()
	rec.undo, rec.ops = nil, nil
}

// contained runs fn with fault containment: a panic — in the RHS
// interpreter, a called Go function or matcher maintenance — is
// recovered, counted, traced and surfaced as an ErrRulePanic instead of
// killing the run.
func (e *Engine) contained(u *unit, fn func() error) (err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		e.stats.Inc(metrics.PanicsContained)
		scope := u.scope
		if u.inst != nil {
			scope = "rule " + u.inst.Rule.Name
		}
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
// QUEL statements (ApplyDeltaContext), rule firings of every run mode
// (fire), restored dumps (LogRestored) — only fills in a unit; commit
// is the one place that sequences maintenance, logging and durability.
type unit struct {
	// scope names a unit that is not a firing in a contained panic's
	// error; a firing is named after its rule.
	scope string
	// inst is a firing's instantiation: the unit is logged as a txn unit
	// under its rendered key, so replay restores refraction. nil logs a
	// batch unit.
	inst *conflict.Instantiation
	txn  uint64 // correlates the unit's trace events; 0 outside rounds and batches
	// body mutates WM through rec under maintMu. An error leaves the
	// ops already applied in place: they are still maintained, so they
	// are real and are logged. A panic rolls them back.
	body func(rec *opRecorder) error
	// span, when set, runs after the unit's maintenance pass, even on a
	// panic: a firing's rule_fire and a batch's batch_apply close there,
	// around the match work the unit triggered.
	span func()
}

// commit is the engine's single write pipeline, the paper's §5.2 rule
// stated once: a unit's validation, its WM writes and the maintenance
// they trigger run inside a non-interleavable section, and the commit
// point comes only after that maintenance completes. The stages, in
// order:
//
//  1. checkWritable (closed, degraded and replica engines reject), then
//     ctx — cancellation is observed before the unit enters the
//     section; a unit inside it runs to completion
//  2. maintMu.Lock            ┐
//  3. body, panic-contained,  │ runLocked: the
//     recording redo + undo   │ non-interleavable
//  4. one maintenance pass    │ section
//     over the unit's delta   │
//  5. WAL append              │
//  6. due checkpoint          │
//  7. maintMu.Unlock          ┘
//  8. durable, the caller's, on the returned log position (nil log when
//     nothing was appended): a batch waits per unit, a run per cycle
func (e *Engine) commit(ctx context.Context, u unit) (*wal.Log, uint64, error) {
	err := e.checkWritable()
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		return nil, 0, err
	}
	return e.runLocked(u)
}

// durable is commit's stage 8: WaitDurable outside maintMu, so
// concurrent committers pile onto one leader fsync. The log is
// sequential, so one wait on a cycle's last sequence covers all its
// firings. A group-sync failure degrades the engine read-only: the units
// stay applied and logged, but durability can no longer be promised for
// anyone after them. err, the unit's own error, takes precedence.
func (e *Engine) durable(l *wal.Log, seq uint64, err error) error {
	if l == nil {
		return err
	}
	if derr := l.WaitDurable(seq); derr != nil {
		derr = e.enterReadOnly(derr)
		if err == nil {
			err = derr
		}
	}
	return err
}

// runLocked is commit's non-interleavable section (stages 2–7).
func (e *Engine) runLocked(u unit) (*wal.Log, uint64, error) {
	e.maintMu.Lock()
	defer e.maintMu.Unlock()
	e.stats.Inc(metrics.SerialOps)
	rec := &opRecorder{redo: e.wal != nil}
	err := e.contained(&u, func() error {
		if u.span != nil {
			defer u.span()
		}
		err := u.body(rec)
		rec.maintained = true
		if merr := e.maintainLocked(); err == nil {
			err = merr
		}
		return err
	})
	if errors.Is(err, ErrRulePanic) {
		// Rollback before log: a panicked unit is undone, and the WAL
		// never sees it.
		e.rollbackLocked(rec)
		return nil, 0, err
	}
	// Whatever stays applied is logged, so memory and log agree. A unit
	// that applied nothing is logged only as a completed firing: its
	// key must survive a restart to keep the instantiation refracted.
	var l *wal.Log
	var seq uint64
	if e.wal != nil && (len(rec.ops) > 0 || (err == nil && u.inst != nil)) {
		var lerr error
		l, seq, lerr = e.logLocked(u.inst, rec)
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
func (e *Engine) logLocked(in *conflict.Instantiation, rec *opRecorder) (*wal.Log, uint64, error) {
	l := e.wal
	before := l.LastSeq()
	var aerr error
	if in == nil {
		aerr = l.AppendBatch(rec.ops)
	} else {
		aerr = l.AppendTxn(in.KeyString(), rec.ops)
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
// refraction state; a logged key naming no loaded rule is skipped. Each
// unit gets one maintenance pass, as at its commit, so the recovered
// agenda is the uncrashed one. It returns the number of WM operations
// applied. Caller holds maintMu.
func (e *Engine) applyLogged(txns []wal.Txn) (int, error) {
	ops := 0
	for _, t := range txns {
		if !t.Batch && t.Key != "" {
			if key, ok := conflict.ParseKey(e.set, t.Key); ok {
				e.cs.MarkFired(key)
			}
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
				_ = e.maintainLocked() // keep the matcher in step with what landed
				return ops, err
			}
			ops++
		}
		if err := e.maintainLocked(); err != nil {
			return ops, err
		}
	}
	return ops, nil
}

// insertLocked is the one WM insert primitive: it stores t in class —
// under id when nonzero (replay, replica apply and undo reproduce the
// logged ID), under a fresh ID otherwise — and records the change
// (landed). Maintenance waits for the unit's end. Caller holds maintMu.
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
	e.landed(rec, true, class, id, stored)
	if e.tr.Enabled() {
		e.tr.Emit(trace.Event{
			Kind: trace.KindTupleInsert, At: t0, Dur: e.tr.Now() - t0,
			CE: -1, Class: class, ID: uint64(id),
		})
	}
	return id, nil
}

// deleteLocked is the one WM delete primitive, insertLocked's mirror:
// it removes the tuple, records the change and returns the deleted
// tuple. Caller holds maintMu.
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
	e.landed(rec, false, class, id, t)
	if e.tr.Enabled() {
		e.tr.Emit(trace.Event{
			Kind: trace.KindTupleDelete, At: t0, Dur: e.tr.Now() - t0,
			CE: -1, Class: class, ID: uint64(id),
		})
	}
	return t, nil
}

// landed records one storage write in its class's updates counter, the
// unit's delta (where deleting a tuple the unit inserted nets out) and
// rec's undo and redo ops; replay, undo and exploration pass no rec.
func (e *Engine) landed(rec *opRecorder, inserted bool, class string, id relation.TupleID, t relation.Tuple) {
	e.updates(class).Inc()
	op := wal.Op{Retract: !inserted, Class: class, ID: id}
	if inserted {
		op.Tuple = t
		e.delta.AddInsert(class, id, t)
	} else {
		e.delta.AddDelete(class, id, t)
	}
	if rec == nil {
		return
	}
	rec.undo = append(rec.undo, undoOp{retract: inserted, class: class, id: id, tuple: t})
	if rec.redo {
		rec.ops = append(rec.ops, op)
	}
}

// maintainLocked is the maintenance process of every kind of write unit,
// run once after its storage writes: the matcher, then the WM observer,
// get the unit's net delta, then emptied. Caller holds maintMu.
func (e *Engine) maintainLocked() error {
	d := e.delta
	defer d.Reset()
	passes, err := match.ApplyDelta(e.matcher, d)
	e.stats.Add(metrics.BatchPropagations, int64(passes))
	if err != nil {
		return err
	}
	if e.wmObserver != nil {
		e.wmObserver(d)
	}
	return nil
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

// Restore loads a working-memory dump (relation.DB.Restore: validated
// whole before anything applies) under its original tuple IDs and runs
// the restored tuples through one maintenance pass, all under the
// maintenance lock. It logs nothing; see LogRestored.
func (e *Engine) Restore(r io.Reader) ([]relation.RestoredTuple, error) {
	e.maintMu.Lock()
	defer e.maintMu.Unlock()
	return e.restoreLocked(r)
}

// restoreLocked is Restore for a caller holding maintMu.
func (e *Engine) restoreLocked(r io.Reader) ([]relation.RestoredTuple, error) {
	restored, err := e.db.Restore(r)
	if err != nil {
		return nil, err
	}
	for _, rt := range restored {
		e.delta.AddInsert(rt.Class, rt.ID, rt.Tuple)
	}
	if err := e.maintainLocked(); err != nil {
		return nil, err
	}
	return restored, nil
}

// LogRestored commits one redo-only unit covering tuples restored
// outside the engine's write units (Restore), so a later
// recovery reproduces them under their original IDs. A no-op without a
// WAL.
func (e *Engine) LogRestored(rts []relation.RestoredTuple) error {
	if e.wal == nil || len(rts) == 0 {
		return nil
	}
	return e.durable(e.commit(context.Background(), unit{scope: "restore", body: func(rec *opRecorder) error {
		rec.ops = make([]wal.Op, len(rts))
		for i, rt := range rts {
			rec.ops[i] = wal.Op{Class: rt.Class, ID: rt.ID, Tuple: rt.Tuple}
		}
		return nil
	}}))
}

// applyActions interprets the RHS of a fired instantiation op at a
// time, so a modify reads the live tuple its own earlier actions left.
// The caller holds maintMu for the whole firing: no other unit can land
// between two actions, or between the retract and assert halves of one
// modify. rec collects the applied WM ops for the firing's single
// commit-point WAL append. Returns whether a halt action ran.
func (e *Engine) applyActions(in *conflict.Instantiation, rec *opRecorder) (bool, error) {
	r := in.Rule
	b := r.Fill(nil, in.Tuples) // one vector per firing, bind slots included
	halted := false
	for _, act := range in.Rule.Actions {
		switch act.Kind {
		case lang.ActMake:
			schema := e.set.Classes[act.Class]
			t := make(relation.Tuple, schema.Arity())
			for _, as := range act.Assigns {
				pos, _ := schema.Pos(as.Attr)
				v, err := r.ResolveTerm(as.Term, b)
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
			// The element may already be gone (removed twice by one
			// RHS); OPS5 ignores this.
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
				v, err := r.ResolveTerm(as.Term, b)
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
					v, err := r.ResolveTerm(arg, b)
					if err != nil {
						return halted, fmt.Errorf("rule %s write: %w", in.Rule.Name, err)
					}
					parts = append(parts, v.String())
				}
				fmt.Fprintln(e.cfg.Out, strings.Join(parts, " "))
			}
		case lang.ActBind:
			v, err := r.ResolveTerm(act.Term, b)
			if err != nil {
				return halted, fmt.Errorf("rule %s bind: %w", in.Rule.Name, err)
			}
			s, _ := r.Slot(act.Var)
			b[s] = v
		case lang.ActCall:
			fn, ok := e.funcs[act.Func]
			if !ok {
				return halted, fmt.Errorf("rule %s: call of unregistered function %q", in.Rule.Name, act.Func)
			}
			args := make([]value.V, len(act.Args))
			for i, arg := range act.Args {
				v, err := r.ResolveTerm(arg, b)
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
		}
	}
	return halted, nil
}

// errAlreadyFired aborts a firing whose instantiation another firing
// marked first; it classifies as ErrStale.
var errAlreadyFired = fmt.Errorf("%w: already fired", ErrStale)

// fire commits one firing of in as a unit; txn correlates a round
// member's trace events (0 outside rounds). Its body is the one
// validation and act, inside the maintenance section: in must still be
// in the conflict set and not yet fired (else ErrStale, nothing applied
// or logged), then it is marked fired — a panicked firing stays marked,
// so a panic cannot loop — and its RHS runs. So an instantiation fires
// at most once, and only while its supporting tuples live and its
// negated conditions hold. The rule_fire span runs through the unit's
// maintenance pass. fire returns whether a halt ran, then commit's results.
func (e *Engine) fire(ctx context.Context, in *conflict.Instantiation, txn uint64) (bool, *wal.Log, uint64, error) {
	key := in.Key()
	u := unit{inst: in, txn: txn}
	var act struct { // one allocation for everything the closures share
		fired, halted bool
		t0            time.Duration
	}
	u.body = func(rec *opRecorder) (err error) {
		if e.cs.HasFired(key) {
			return errAlreadyFired
		}
		if !e.cs.Contains(key) {
			return ErrStale
		}
		e.cs.MarkFired(key)
		act.fired, act.t0 = true, e.tr.Now()
		act.halted, err = e.applyActions(in, rec)
		return err
	}
	if e.tr.Enabled() {
		u.span = func() {
			if act.fired {
				e.tr.Emit(trace.Event{
					Kind: trace.KindRuleFire, At: act.t0, Dur: e.tr.Now() - act.t0,
					Rule: in.Rule.Name, CE: -1, ID: u.txn, Count: 1, Extra: in.KeyString(),
				})
			}
		}
	}
	l, seq, err := e.commit(ctx, u)
	return act.halted, l, seq, err
}

// Fire commits one validated firing of in outside any run and waits
// until it is durable: ErrStale when in left the conflict set or already
// fired. The experiment harness enumerates serial schedules with it,
// every possible Select choice of §2.1. It reports whether a halt ran.
func (e *Engine) Fire(in *conflict.Instantiation) (bool, error) {
	halted, l, seq, err := e.fire(context.Background(), in, 0)
	return halted, e.durable(l, seq, err)
}

// RunSerial executes the OPS5 recognize-act cycle: Match (incremental,
// already maintained), Select one instantiation — with SetAtATime, every
// eligible instantiation of the selected rule — Act, repeat until the
// conflict set empties, a halt fires, or the firing cap is reached.
func (e *Engine) RunSerial() (Result, error) {
	return e.RunSerialContext(context.Background())
}

// RunSerialContext is RunSerial honoring ctx: cancellation is observed
// between firings (a firing in progress completes).
func (e *Engine) RunSerialContext(ctx context.Context) (Result, error) {
	return e.run(ctx, false)
}

// RunConcurrent executes the conflict set in §5.2 rounds: each round
// fires every member of the applicable set Ψ as a transaction, one after
// another, and the next round sees the Ψ' they produced. A member an
// earlier one invalidated or fired aborts harmlessly with ErrStale.
func (e *Engine) RunConcurrent() (Result, error) {
	return e.RunConcurrentContext(context.Background())
}

// RunConcurrentContext is RunConcurrent honoring ctx: cancellation is
// observed between rounds and before each transaction enters the
// maintenance section; a transaction inside it runs to completion.
func (e *Engine) RunConcurrentContext(ctx context.Context) (Result, error) {
	return e.run(ctx, true)
}

// run is the one recognize-act loop. Each cycle fires a batch — a round,
// or the strategy's pick plus, under SetAtATime, its rule's other
// eligible instantiations (§5.1) — member by member through fire, then
// waits once for the cycle's last log position. The firing cap is an
// error only while an instantiation is still eligible. A round member is
// a transaction: endTxn counts and traces its outcome, and its aborts
// (stale or panicked) count in Result.Aborts.
func (e *Engine) run(ctx context.Context, round bool) (Result, error) {
	var res Result
	var batch []*conflict.Instantiation
	for {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		if err := e.checkWritable(); err != nil {
			return res, err
		}
		batch = batch[:0]
		if round {
			batch = e.cs.SelectAll()
		} else if in := e.cs.Select(e.cfg.Strategy); in != nil {
			batch = append(batch, in)
			if e.cfg.SetAtATime {
				for _, other := range e.cs.SelectAll() {
					if other.Rule == in.Rule && other != in {
						batch = append(batch, other)
					}
				}
			}
		}
		if len(batch) == 0 {
			return res, nil
		}
		if res.Firings >= e.cfg.MaxFirings {
			return res, fmt.Errorf("engine: firing cap %d reached", e.cfg.MaxFirings)
		}
		res.Cycles++
		var l *wal.Log
		var last uint64
		var err error
		for _, in := range batch {
			var txn uint64
			if round {
				txn = e.nextTxn.Add(1)
			}
			halted, fl, seq, ferr := e.fire(ctx, in, txn)
			if fl != nil {
				l, last = fl, seq
			}
			if round && e.endTxn(in, txn, ferr) {
				res.Aborts++
			}
			if errors.Is(ferr, ErrRulePanic) {
				res.Panics++ // contained: rolled back, and the loop keeps serving
				continue
			}
			if errors.Is(ferr, ErrStale) {
				continue // a commit since selection, or an earlier member, retracted or fired it
			}
			if err = ferr; err != nil {
				break
			}
			res.Firings++
			e.stats.Inc(metrics.RuleFirings)
			res.Halted = halted
			if halted || res.Firings >= e.cfg.MaxFirings {
				break
			}
		}
		if err := e.durable(l, last, err); err != nil || res.Halted {
			return res, err
		}
	}
}

// endTxn counts and traces a round member's outcome as a txn commit or
// abort, so the txn_commits and txn_aborts counters agree with Result and
// the txn event stream. It reports whether the member aborted.
func (e *Engine) endTxn(in *conflict.Instantiation, txn uint64, err error) bool {
	ev := trace.Event{Kind: trace.KindTxnAbort, Rule: in.Rule.Name, CE: -1, ID: txn}
	switch {
	case err == nil:
		ev.Kind = trace.KindTxnCommit
		e.stats.Inc(metrics.TxnCommits)
	case errors.Is(err, errAlreadyFired):
		ev.Extra = "already fired"
	case errors.Is(err, ErrStale):
		ev.Extra = "stale"
	case errors.Is(err, ErrRulePanic):
		ev.Extra = "panic"
	default:
		return false
	}
	if ev.Extra != "" {
		e.stats.Inc(metrics.TxnAborts)
	}
	if e.tr.Enabled() {
		ev.At = e.tr.Now()
		e.tr.Emit(ev)
	}
	return ev.Extra != ""
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
