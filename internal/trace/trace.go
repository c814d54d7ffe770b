// Package trace is the execution tracing and per-rule profiling layer.
//
// A Tracer is created once per system and handed to the engine, the
// matchers, the lock manager and the conflict set at load time. While
// disabled (the default) every entry point is a nil-safe no-op with a
// lock-free fast path — a single atomic load, no clock read, and no
// allocation — so instrumented hot paths cost nothing in production.
//
// When enabled, emit points record typed Events into a fixed-capacity
// ring buffer (oldest events are overwritten on overflow) while
// per-rule and per-condition-element aggregates are maintained
// incrementally at emit time, so Profile and Explain stay exact even
// after the ring has wrapped.
package trace

import (
	"sync"
	"sync/atomic"
	"time"
)

// Kind identifies the type of a trace event.
type Kind uint8

const (
	KindNone Kind = iota
	// Storage layer.
	KindTupleInsert // a tuple entered working memory (Dur covers match maintenance)
	KindTupleDelete // a tuple left working memory (Dur covers match maintenance)
	// Match layer.
	KindCondScan         // a condition-element scan / alpha test pass (Count = patterns or candidates checked)
	KindPatternPropagate // matching patterns propagated to a COND relation (Count = patterns carried)
	KindJoinEval         // a join / token evaluation for one CE (Count = instantiations produced)
	// Conflict set.
	KindActivation   // an instantiation entered the conflict set
	KindDeactivation // an instantiation left the conflict set
	// Execution layer.
	KindRuleFire  // a selected instantiation's RHS executed (Extra = instantiation key)
	KindTxnCommit // a rule-firing transaction committed
	KindTxnAbort  // a rule-firing transaction aborted (Extra = reason)
	// Batch layer.
	KindBatchApply // a set-oriented delta was applied (Count = operations)
	// Durability layer.
	KindWALAppend      // a committed unit was appended to the write-ahead log (Count = records)
	KindWALSync        // the log was fsynced (Dur = sync time)
	KindCheckpoint     // a checkpoint compaction ran (Count = tuples snapshotted)
	KindRecoveryReplay // recovery replayed the checkpoint + log tail (Count = units replayed)
	// Integrity layer.
	KindAuditRun        // an integrity audit pass completed (Count = divergences found)
	KindAuditDivergence // one divergence between the live matcher and its from-scratch twin (Extra = detail)
	KindRepair          // an audit repaired its divergences with a fresh matcher (Count = divergences, Extra = matcher)
	KindPanicContained  // a panicking firing or maintenance step was absorbed (Extra = value)
	KindReadOnly        // a WAL failure flipped the system read-only (Extra = cause)
	// Replication layer.
	KindReplicaApply // a shipped committed unit was applied on a replica (Count = ops, ID = epoch)
	KindReplicaLag   // a feed heartbeat measured replication lag (Count = lag bytes, ID = epoch)

	kindCount
)

var kindNames = [kindCount]string{
	KindNone:             "none",
	KindTupleInsert:      "tuple_insert",
	KindTupleDelete:      "tuple_delete",
	KindCondScan:         "cond_scan",
	KindPatternPropagate: "pattern_propagate",
	KindJoinEval:         "join_eval",
	KindActivation:       "activation",
	KindDeactivation:     "deactivation",
	KindRuleFire:         "rule_fire",
	KindTxnCommit:        "txn_commit",
	KindTxnAbort:         "txn_abort",
	KindBatchApply:       "batch_apply",
	KindWALAppend:        "wal_append",
	KindWALSync:          "wal_sync",
	KindCheckpoint:       "checkpoint",
	KindRecoveryReplay:   "recovery_replay",
	KindAuditRun:         "audit_run",
	KindAuditDivergence:  "audit_divergence",
	KindRepair:           "repair",
	KindPanicContained:   "panic_contained",
	KindReadOnly:         "read_only",
	KindReplicaApply:     "replica_apply",
	KindReplicaLag:       "replica_lag",
}

// String returns the stable snake_case name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// MarshalJSON encodes the kind as its string name.
func (k Kind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// Kinds enumerates every event kind name in declaration order.
func Kinds() []string {
	out := make([]string, 0, kindCount-1)
	for k := Kind(1); k < kindCount; k++ {
		out = append(out, k.String())
	}
	return out
}

// Event is one structured trace record. Times are monotonic offsets
// from the tracer's start. CE is meaningful only for match-layer
// events; emitters use -1 when an event is rule-level only.
type Event struct {
	Seq   uint64        `json:"seq"`
	Kind  Kind          `json:"kind"`
	At    time.Duration `json:"at_ns"`
	Dur   time.Duration `json:"dur_ns,omitempty"`
	Rule  string        `json:"rule,omitempty"`
	CE    int           `json:"ce,omitempty"`
	Class string        `json:"class,omitempty"`
	ID    uint64        `json:"id,omitempty"`
	Count int64         `json:"count,omitempty"`
	Extra string        `json:"extra,omitempty"`
}

// Options configures a tracing run.
type Options struct {
	// Capacity bounds the event ring buffer. Zero means the default
	// (65536). On overflow the oldest events are dropped; profile
	// aggregates are maintained at emit time and are unaffected.
	Capacity int
}

// DefaultCapacity is the ring-buffer size used when Options.Capacity
// is zero.
const DefaultCapacity = 1 << 16

// CEInfo describes one condition element of a rule, for Explain.
type CEInfo struct {
	Class   string
	Negated bool
}

// RuleInfo describes a rule's condition elements, for Explain.
type RuleInfo struct {
	Name string
	CEs  []CEInfo
}

// Tracer records structured execution events. The zero value and the
// nil pointer are both valid, permanently disabled tracers.
type Tracer struct {
	on    atomic.Bool
	epoch atomic.Pointer[time.Time] // carries a monotonic reading

	mu       sync.Mutex
	buf      []Event // ring storage, len == capacity
	next     uint64  // total events accepted since Start
	kinds    [kindCount]int64
	rules    map[string]*ruleAgg
	last     map[string]Event // rule -> most recent RuleFire
	info     map[string]RuleInfo
	started  bool
	planText func(rule string) string // Explain's join-plan renderer
}

// New returns a disabled tracer ready to be wired through a system.
func New() *Tracer { return &Tracer{} }

// Enabled reports whether events are currently being recorded. It is
// the lock-free fast path: safe on a nil receiver, a single atomic
// load otherwise.
func (t *Tracer) Enabled() bool {
	return t != nil && t.on.Load()
}

// Now returns the monotonic offset since Start, or 0 when disabled —
// so `t0 := tr.Now()` in a hot path never reads the clock unless a
// trace is active.
func (t *Tracer) Now() time.Duration {
	if !t.Enabled() {
		return 0
	}
	epoch := t.epoch.Load()
	if epoch == nil {
		return 0
	}
	return time.Since(*epoch)
}

// Start (re)starts recording: the ring, the aggregates and the clock
// epoch are reset. Rule metadata from SetRules is retained.
func (t *Tracer) Start(opts Options) {
	capacity := opts.Capacity
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	now := time.Now()
	t.epoch.Store(&now)
	t.mu.Lock()
	t.buf = make([]Event, capacity)
	t.next = 0
	t.kinds = [kindCount]int64{}
	t.rules = make(map[string]*ruleAgg)
	t.last = make(map[string]Event)
	t.started = true
	t.mu.Unlock()
	t.on.Store(true)
}

// Stop pauses recording; recorded events and aggregates remain
// readable. Start resumes with a fresh buffer.
func (t *Tracer) Stop() {
	if t == nil {
		return
	}
	t.on.Store(false)
}

// SetRules installs rule metadata used by Explain to name the classes
// behind each supporting tuple. Safe to call before Start.
func (t *Tracer) SetRules(rs []RuleInfo) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.info = make(map[string]RuleInfo, len(rs))
	for _, r := range rs {
		t.info[r.Name] = r
	}
}

// Emit records one event. When the tracer is disabled (or nil) this
// returns immediately without locking or allocating.
func (t *Tracer) Emit(ev Event) {
	if !t.Enabled() {
		return
	}
	t.mu.Lock()
	ev.Seq = t.next
	t.next++
	if n := len(t.buf); n > 0 {
		t.buf[ev.Seq%uint64(n)] = ev
	}
	if int(ev.Kind) < len(t.kinds) {
		t.kinds[ev.Kind]++
	}
	t.aggregate(ev)
	t.mu.Unlock()
}

// Events returns the retained events in emission order (oldest first).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := uint64(len(t.buf))
	if n == 0 || t.next == 0 {
		return nil
	}
	if t.next <= n {
		out := make([]Event, t.next)
		copy(out, t.buf[:t.next])
		return out
	}
	oldest := t.next % n
	out := make([]Event, 0, n)
	out = append(out, t.buf[oldest:]...)
	out = append(out, t.buf[:oldest]...)
	return out
}

// Len returns the number of events currently retained in the ring.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := uint64(len(t.buf)); t.next > n {
		return int(n)
	}
	return int(t.next)
}

// Total returns the number of events accepted since Start, including
// any that have since been overwritten.
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.next
}

// Dropped returns how many events were overwritten by ring overflow.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := uint64(len(t.buf)); t.next > n {
		return t.next - n
	}
	return 0
}

// KindCount returns how many events of kind k were accepted since
// Start (aggregated at emit time, immune to ring overflow).
func (t *Tracer) KindCount(k Kind) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(k) < len(t.kinds) {
		return t.kinds[k]
	}
	return 0
}
