// Package metrics collects the operation counters the experiment harness
// reports: tuples scanned and stored, node activations, joins recomputed,
// lock waits, transaction aborts, and simulated I/O.
//
// Counters are safe for concurrent increment, matching the paper's claim
// that matching-pattern propagation can proceed in parallel across COND
// relations.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter identifies one tracked quantity.
type Counter string

// The counters used across the matchers and executors.
const (
	// Storage-engine level.
	TuplesInserted   Counter = "tuples_inserted"
	TuplesDeleted    Counter = "tuples_deleted"
	TuplesScanned    Counter = "tuples_scanned"
	IndexLookups     Counter = "index_lookups"      // hash-index equality probes
	IndexRangeProbes Counter = "index_range_probes" // ordered-index range probes
	InternHits       Counter = "intern_hits"        // string payloads deduplicated at insert
	BatchInserts     Counter = "batch_inserts"      // bulk InsertBatch calls
	PagesRead        Counter = "pages_read"         // simulated I/O
	PagesWritten     Counter = "pages_written"

	// Match-network level.
	NodeActivations  Counter = "node_activations"
	TokensStored     Counter = "tokens_stored"
	TokensDeleted    Counter = "tokens_deleted"
	JoinsComputed    Counter = "joins_computed"
	PatternsStored   Counter = "patterns_stored"
	PatternsDeleted  Counter = "patterns_deleted"
	PatternSearches  Counter = "pattern_searches"
	CondTuplesStored Counter = "cond_tuples_stored"
	FalseDrops       Counter = "false_drops"
	CandidateChecks  Counter = "candidate_checks"

	// Planner level (internal/joiner cost-based planning).
	PlansBuilt        Counter = "plans_built"        // plans compiled (first build + rebuilds)
	PlanCacheHits     Counter = "plan_cache_hits"    // executions served by a cached plan
	PlanInvalidations Counter = "plan_invalidations" // plans discarded on stats drift

	// Conflict-set / execution level.
	Instantiations Counter = "instantiations"
	Retractions    Counter = "retractions"
	RuleFirings    Counter = "rule_firings"
	LockWaits      Counter = "lock_waits"
	LockAcquired   Counter = "locks_acquired"
	TxnCommits     Counter = "txn_commits"
	TxnAborts      Counter = "txn_aborts"
	Deadlocks      Counter = "deadlocks"
	SerialOps      Counter = "serial_ops" // non-interleaved operation slots
	MaintenanceOps Counter = "maintenance_ops"

	// Batch-pipeline level (engine.ApplyDelta).
	BatchDeltas       Counter = "batch_deltas"       // deltas applied set-at-a-time
	BatchTuples       Counter = "batch_tuples"       // tuples carried by those deltas
	BatchPropagations Counter = "batch_propagations" // per-(class,direction) maintenance passes

	// Durability level (internal/wal).
	TxnRetries     Counter = "txn_retries"     // deadlock victims retried with backoff
	WALAppends     Counter = "wal_appends"     // committed units (txns + batches) logged
	WALRecords     Counter = "wal_records"     // individual records written
	WALBytes       Counter = "wal_bytes"       // bytes appended to the log
	WALSyncs       Counter = "wal_syncs"       // fsyncs issued by the sync policy
	WALCheckpoints Counter = "wal_checkpoints" // checkpoint compactions completed
	RecoveryTxns   Counter = "recovery_txns"   // committed units replayed at open
	RecoveryOps    Counter = "recovery_ops"    // WM operations replayed at open
	RecoveryTuples Counter = "recovery_tuples" // checkpoint tuples restored at open
	RecoveryNanos  Counter = "recovery_ns"     // wall time spent in recovery replay

	// Server level (internal/server front end + WAL group commit).
	ServerAdmitted     Counter = "server_admitted"      // requests admitted past admission control
	ServerRejected     Counter = "server_rejected"      // requests shed with 429 (queue full)
	ServerDrained      Counter = "server_drained"       // in-flight requests finished during drain
	ServerQueueClients Counter = "server_queue_clients" // high-water distinct clients waiting in the fair queue
	WALGroupCommits    Counter = "wal_group_commits"    // group fsyncs, each covering ≥1 waiting commit
	WALGroupWaiters    Counter = "wal_group_waiters"    // commits whose durability rode a group fsync
	ReadOnlyMode       Counter = "read_only"            // 1 after a WAL failure flipped the system read-only

	// Replication level (internal/replica log shipping + failover).
	ReplicaTxns       Counter = "replica_txns_applied"  // committed units applied from the feed
	ReplicaOps        Counter = "replica_ops_applied"   // WM operations those units carried
	ReplicaBytes      Counter = "replica_bytes"         // raw WAL bytes mirrored into the local log
	ReplicaSnapshots  Counter = "replica_snapshots"     // bootstrap snapshots restored
	ReplicaEpochs     Counter = "replica_epoch_follows" // primary checkpoints mirrored locally
	ReplicaReconnects Counter = "replica_reconnects"    // feed connections (re)established
	ReplicaLagBytes   Counter = "replica_lag_bytes"     // gauge: bytes behind the primary at last heartbeat
	FeedsServed       Counter = "feeds_served"          // replication feed connections served (primary side)
	FeedFrames        Counter = "feed_frames"           // frames shipped to replicas (primary side)
	Promotions        Counter = "promotions"            // replica→primary promotions completed
	FencedWrites      Counter = "fenced_writes"         // writes rejected by stale-epoch fencing

	// Integrity level (internal/audit + executor fault containment).
	AuditRuns         Counter = "audit_runs"          // audit passes (full or sampled)
	AuditRulesChecked Counter = "audit_rules_checked" // rules examined across audits
	AuditDivergences  Counter = "audit_divergences"   // divergences detected
	AuditRepairs      Counter = "audit_repairs"       // divergences repaired
	MatcherRebuilds   Counter = "matcher_rebuilds"    // rules (or matchers) rebuilt from WM
	PanicsContained   Counter = "panics_contained"    // rule/maintenance panics absorbed
	TxnTimeouts       Counter = "txn_timeouts"        // transactions aborted by the watchdog
)

// Set is a concurrent counter bag. The zero Set is ready to use.
type Set struct {
	mu sync.RWMutex
	m  map[Counter]*atomic.Int64
}

// counter returns (creating on demand) the cell for c.
func (s *Set) counter(c Counter) *atomic.Int64 {
	s.mu.RLock()
	cell := s.m[c]
	s.mu.RUnlock()
	if cell != nil {
		return cell
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m == nil {
		s.m = make(map[Counter]*atomic.Int64)
	}
	if cell = s.m[c]; cell == nil {
		cell = new(atomic.Int64)
		s.m[c] = cell
	}
	return cell
}

// Add increments counter c by n.
func (s *Set) Add(c Counter, n int64) {
	if s == nil {
		return
	}
	s.counter(c).Add(n)
}

// Inc increments counter c by one.
func (s *Set) Inc(c Counter) { s.Add(c, 1) }

// Get returns the current value of counter c.
func (s *Set) Get(c Counter) int64 {
	if s == nil {
		return 0
	}
	s.mu.RLock()
	cell := s.m[c]
	s.mu.RUnlock()
	if cell == nil {
		return 0
	}
	return cell.Load()
}

// Store sets counter c to exactly n — gauge semantics for quantities
// that move both ways (replication lag, queue depths).
func (s *Set) Store(c Counter, n int64) {
	if s == nil {
		return
	}
	s.counter(c).Store(n)
}

// Max raises counter c to at least n.
func (s *Set) Max(c Counter, n int64) {
	if s == nil {
		return
	}
	cell := s.counter(c)
	for {
		cur := cell.Load()
		if cur >= n || cell.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Reset zeroes every counter.
func (s *Set) Reset() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, cell := range s.m {
		cell.Store(0)
	}
}

// Snapshot is an immutable copy of a Set's counters.
type Snapshot map[Counter]int64

// Snapshot copies the current counter values.
func (s *Set) Snapshot() Snapshot {
	if s == nil {
		return Snapshot{}
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(Snapshot, len(s.m))
	for c, cell := range s.m {
		out[c] = cell.Load()
	}
	return out
}

// Get returns the value of c in the snapshot (zero when absent).
func (sn Snapshot) Get(c Counter) int64 { return sn[c] }

// Diff returns sn - prev per counter, keeping only nonzero deltas.
func (sn Snapshot) Diff(prev Snapshot) Snapshot {
	out := make(Snapshot)
	for c, v := range sn {
		if d := v - prev[c]; d != 0 {
			out[c] = d
		}
	}
	for c, v := range prev {
		if _, seen := sn[c]; !seen && v != 0 {
			out[c] = -v
		}
	}
	return out
}

// String renders the snapshot with counters in sorted order.
func (sn Snapshot) String() string {
	names := make([]string, 0, len(sn))
	for c := range sn {
		names = append(names, string(c))
	}
	sort.Strings(names)
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", n, sn[Counter(n)])
	}
	return b.String()
}
