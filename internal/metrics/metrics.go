// Package metrics collects the operation counters the experiment harness
// reports: tuples scanned and stored, node activations, joins recomputed,
// transaction aborts, and simulated I/O.
//
// Counters are safe for concurrent increment, matching the paper's claim
// that matching-pattern propagation can proceed in parallel across COND
// relations. The fixed counters live in a dense array indexed by Counter,
// so an increment is one atomic add: no lock and no map lookup.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter identifies one fixed tracked quantity; String returns its name.
type Counter uint8

// The counters used across the matchers and executors.
const (
	// Storage-engine level.
	TuplesInserted Counter = iota
	TuplesDeleted
	TuplesScanned
	IndexLookups     // hash-index equality probes
	IndexRangeProbes // ordered-index range probes
	InternHits       // string payloads deduplicated at insert
	BatchInserts     // bulk InsertBatch calls
	PagesRead        // simulated I/O
	PagesWritten

	// Match-network level.
	NodeActivations
	TokensStored
	TokensDeleted
	JoinsComputed
	PatternsStored
	PatternsDeleted
	PatternSearches
	CondTuplesStored
	FalseDrops
	CandidateChecks

	// Planner level (internal/joiner cost-based planning).
	PlansBuilt        // plans compiled (first build + rebuilds)
	PlanCacheHits     // executions served by a cached plan
	PlanInvalidations // plans discarded on stats drift

	// Conflict-set / execution level.
	Instantiations
	Retractions
	RuleFirings
	TxnCommits
	TxnAborts
	SerialOps // non-interleaved operation slots
	MaintenanceOps

	// Batch-pipeline level (engine.ApplyDelta).
	BatchDeltas       // deltas applied set-at-a-time
	BatchTuples       // tuples carried by those deltas
	BatchPropagations // per-(class,direction) maintenance passes

	// Durability level (internal/wal).
	WALAppends     // committed units (txns + batches) logged
	WALRecords     // individual records written
	WALBytes       // bytes appended to the log
	WALSyncs       // fsyncs issued by the sync policy
	WALCheckpoints // checkpoint compactions completed
	RecoveryTxns   // committed units replayed at open
	RecoveryOps    // WM operations replayed at open
	RecoveryTuples // checkpoint tuples restored at open
	RecoveryNanos  // wall time spent in recovery replay

	// Server level (internal/server front end + WAL group commit).
	ServerAdmitted     // requests admitted past admission control
	ServerRejected     // requests shed with 429 (queue full)
	ServerDrained      // in-flight requests finished during drain
	ServerQueueClients // high-water distinct clients waiting in the fair queue
	WALGroupCommits    // group fsyncs, each covering ≥1 waiting commit
	WALGroupWaiters    // commits whose durability rode a group fsync
	ReadOnlyMode       // 1 after a WAL failure flipped the system read-only

	// Replication level (internal/replica log shipping + failover).
	ReplicaTxns       // committed units applied from the feed
	ReplicaOps        // WM operations those units carried
	ReplicaBytes      // raw WAL bytes mirrored into the local log
	ReplicaSnapshots  // bootstrap snapshots restored
	ReplicaEpochs     // primary checkpoints mirrored locally
	ReplicaReconnects // feed connections (re)established
	ReplicaLagBytes   // gauge: bytes behind the primary at last heartbeat
	FeedsServed       // replication feed connections served (primary side)
	FeedFrames        // frames shipped to replicas (primary side)
	Promotions        // replica→primary promotions completed
	FencedWrites      // writes rejected by stale-epoch fencing

	// Integrity level (internal/audit + executor fault containment).
	AuditRuns         // audit passes (full or sampled)
	AuditRulesChecked // rules examined across audits
	AuditDivergences  // divergences detected
	AuditRepairs      // divergences repaired
	MatcherRebuilds   // matchers rebuilt from WM by an audit's repair
	PanicsContained   // rule/maintenance panics absorbed

	numCounters // not a counter: the size of the fixed array
)

// names are the counters' reported names, the keys of a Snapshot.
var names = [numCounters]string{
	TuplesInserted:     "tuples_inserted",
	TuplesDeleted:      "tuples_deleted",
	TuplesScanned:      "tuples_scanned",
	IndexLookups:       "index_lookups",
	IndexRangeProbes:   "index_range_probes",
	InternHits:         "intern_hits",
	BatchInserts:       "batch_inserts",
	PagesRead:          "pages_read",
	PagesWritten:       "pages_written",
	NodeActivations:    "node_activations",
	TokensStored:       "tokens_stored",
	TokensDeleted:      "tokens_deleted",
	JoinsComputed:      "joins_computed",
	PatternsStored:     "patterns_stored",
	PatternsDeleted:    "patterns_deleted",
	PatternSearches:    "pattern_searches",
	CondTuplesStored:   "cond_tuples_stored",
	FalseDrops:         "false_drops",
	CandidateChecks:    "candidate_checks",
	PlansBuilt:         "plans_built",
	PlanCacheHits:      "plan_cache_hits",
	PlanInvalidations:  "plan_invalidations",
	Instantiations:     "instantiations",
	Retractions:        "retractions",
	RuleFirings:        "rule_firings",
	TxnCommits:         "txn_commits",
	TxnAborts:          "txn_aborts",
	SerialOps:          "serial_ops",
	MaintenanceOps:     "maintenance_ops",
	BatchDeltas:        "batch_deltas",
	BatchTuples:        "batch_tuples",
	BatchPropagations:  "batch_propagations",
	WALAppends:         "wal_appends",
	WALRecords:         "wal_records",
	WALBytes:           "wal_bytes",
	WALSyncs:           "wal_syncs",
	WALCheckpoints:     "wal_checkpoints",
	RecoveryTxns:       "recovery_txns",
	RecoveryOps:        "recovery_ops",
	RecoveryTuples:     "recovery_tuples",
	RecoveryNanos:      "recovery_ns",
	ServerAdmitted:     "server_admitted",
	ServerRejected:     "server_rejected",
	ServerDrained:      "server_drained",
	ServerQueueClients: "server_queue_clients",
	WALGroupCommits:    "wal_group_commits",
	WALGroupWaiters:    "wal_group_waiters",
	ReadOnlyMode:       "read_only",
	ReplicaTxns:        "replica_txns_applied",
	ReplicaOps:         "replica_ops_applied",
	ReplicaBytes:       "replica_bytes",
	ReplicaSnapshots:   "replica_snapshots",
	ReplicaEpochs:      "replica_epoch_follows",
	ReplicaReconnects:  "replica_reconnects",
	ReplicaLagBytes:    "replica_lag_bytes",
	FeedsServed:        "feeds_served",
	FeedFrames:         "feed_frames",
	Promotions:         "promotions",
	FencedWrites:       "fenced_writes",
	AuditRuns:          "audit_runs",
	AuditRulesChecked:  "audit_rules_checked",
	AuditDivergences:   "audit_divergences",
	AuditRepairs:       "audit_repairs",
	MatcherRebuilds:    "matcher_rebuilds",
	PanicsContained:    "panics_contained",
}

// String returns the counter's reported name.
func (c Counter) String() string { return names[c] }

// Cell is one counter's storage. A Cell reports in snapshots once it has
// been written, even if its value is back at zero.
type Cell struct {
	n    atomic.Int64
	used atomic.Bool
}

// Add increments the cell by n. A nil Cell ignores it.
func (c *Cell) Add(n int64) {
	if c == nil {
		return
	}
	c.n.Add(n)
	c.touch()
}

// Inc increments the cell by one.
func (c *Cell) Inc() { c.Add(1) }

// Load returns the cell's value; zero for a nil Cell.
func (c *Cell) Load() int64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

func (c *Cell) touch() {
	if !c.used.Load() {
		c.used.Store(true)
	}
}

// Set is a concurrent counter bag. The zero Set is ready to use.
type Set struct {
	fixed [numCounters]Cell
	// named holds counters created by name at run time (updates_<class>);
	// callers resolve each once with Named and keep the Cell.
	mu    sync.Mutex
	named map[string]*Cell
}

// Named returns the cell of the run-time counter called name, creating
// it on first use. The name must not be a fixed counter's. A nil Set
// returns a nil Cell, whose methods do nothing.
func (s *Set) Named(name string) *Cell {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cell := s.named[name]
	if cell == nil {
		if s.named == nil {
			s.named = make(map[string]*Cell)
		}
		cell = new(Cell)
		s.named[name] = cell
	}
	return cell
}

// Add increments counter c by n.
func (s *Set) Add(c Counter, n int64) {
	if s == nil {
		return
	}
	s.fixed[c].Add(n)
}

// Inc increments counter c by one.
func (s *Set) Inc(c Counter) { s.Add(c, 1) }

// Get returns the current value of counter c.
func (s *Set) Get(c Counter) int64 {
	if s == nil {
		return 0
	}
	return s.fixed[c].Load()
}

// Store sets counter c to exactly n — gauge semantics for quantities
// that move both ways (replication lag, queue depths).
func (s *Set) Store(c Counter, n int64) {
	if s == nil {
		return
	}
	cell := &s.fixed[c]
	cell.n.Store(n)
	cell.touch()
}

// Max raises counter c to at least n.
func (s *Set) Max(c Counter, n int64) {
	if s == nil {
		return
	}
	cell := &s.fixed[c]
	cell.touch()
	for {
		cur := cell.n.Load()
		if cur >= n || cell.n.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Reset zeroes every counter.
func (s *Set) Reset() {
	if s == nil {
		return
	}
	for i := range s.fixed {
		s.fixed[i].n.Store(0)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, cell := range s.named {
		cell.n.Store(0)
	}
}

// Snapshot is an immutable copy of a Set's counters, keyed by name.
type Snapshot map[string]int64

// Snapshot copies the current value of every counter written so far.
func (s *Set) Snapshot() Snapshot {
	if s == nil {
		return Snapshot{}
	}
	out := make(Snapshot)
	for c := range numCounters {
		if cell := &s.fixed[c]; cell.used.Load() {
			out[names[c]] = cell.n.Load()
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for name, cell := range s.named {
		if cell.used.Load() {
			out[name] = cell.n.Load()
		}
	}
	return out
}

// Get returns the value of c in the snapshot (zero when absent).
func (sn Snapshot) Get(c Counter) int64 { return sn[c.String()] }

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
		names = append(names, c)
	}
	sort.Strings(names)
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", n, sn[n])
	}
	return b.String()
}
