package prodsys

// This file is the observability surface of the system: execution
// tracing with per-rule profiling (System.Trace), typed operation
// counters (System.Metrics), and context-aware run entry points.

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"prodsys/internal/joiner"
	"prodsys/internal/metrics"
	"prodsys/internal/trace"
)

// Re-exported planner types. The concrete implementations live in
// internal/joiner; these aliases make System.Plan's tree usable
// without importing an internal package.
type (
	// Plan is a compiled cost-based join order for one rule, with
	// estimated and actual cardinalities per step; obtain one with
	// System.Plan or System.Plans.
	Plan = joiner.Plan
	// PlanStep is one condition element's slot in a Plan.
	PlanStep = joiner.PlanStep
	// PlanAccess names a plan step's access path.
	PlanAccess = joiner.Access
)

// Re-exported tracing types. The concrete implementations live in
// internal/trace; these aliases make the returned values usable without
// importing an internal package.
type (
	// Tracer records structured execution events; obtain one with
	// System.Trace.
	Tracer = trace.Tracer
	// TraceEvent is one recorded event.
	TraceEvent = trace.Event
	// TraceKind enumerates the event kinds.
	TraceKind = trace.Kind
	// Profile aggregates a trace into per-rule and per-condition-element
	// figures.
	Profile = trace.Profile
	// RuleProfile is one rule's row in a Profile.
	RuleProfile = trace.RuleProfile
	// CEProfile is one condition element's row in a RuleProfile.
	CEProfile = trace.CEProfile
	// Explanation reconstructs a rule's last firing from the trace.
	Explanation = trace.Explanation
	// ExplainCE is one condition element's support in an Explanation.
	ExplainCE = trace.ExplainCE
)

// TraceOptions configures System.Trace.
type TraceOptions struct {
	// Capacity bounds the event ring buffer; zero means the default
	// (65536 events). On overflow the oldest events are dropped; the
	// profile aggregates are maintained at emit time and survive
	// overflow.
	Capacity int
}

// Trace starts (or restarts, with a fresh buffer) event recording and
// returns the system's tracer. Every component — storage maintenance,
// the active matcher, the conflict set and the recognize-act loop —
// emits through it. While no trace is active the emit
// points are single atomic-load checks that allocate nothing.
//
// Read the recording through the returned Tracer: Events() for the raw
// stream, Profile() for the per-rule table, Explain(rule) for the
// support of a rule's last firing, WriteJSONL / WriteChromeTrace for
// export. Call Stop on the tracer to pause recording; the recorded
// events remain readable.
func (s *System) Trace(opts TraceOptions) *Tracer {
	infos := make([]trace.RuleInfo, 0, len(s.set.Rules))
	for _, r := range s.set.Rules {
		ri := trace.RuleInfo{Name: r.Name, CEs: make([]trace.CEInfo, len(r.CEs))}
		for i, ce := range r.CEs {
			ri.CEs[i] = trace.CEInfo{Class: ce.Class, Negated: ce.Negated}
		}
		infos = append(infos, ri)
	}
	s.tracer.SetRules(infos)
	s.tracer.Start(trace.Options{Capacity: opts.Capacity})
	return s.tracer
}

// Tracer returns the system's tracer without changing its state: nil
// until the system is loaded, disabled until Trace is called.
func (s *System) Tracer() *Tracer { return s.tracer }

// IndexInfo describes one secondary index of a relation.
type IndexInfo struct {
	// Attr is the indexed attribute's name; Pos its position.
	Attr string
	Pos  int
	// Distinct counts the distinct live key values — the selectivity
	// input for cost-based planning.
	Distinct int
}

// RelationStorage describes the storage serving one WM relation.
type RelationStorage struct {
	// Name is the WM class name.
	Name string
	// Tuples is the live cardinality.
	Tuples int
	// Indexes lists the secondary indexes in attribute-position order.
	Indexes []IndexInfo
}

// StorageStats counts storage-engine operations.
type StorageStats struct {
	TuplesInserted   int64
	TuplesDeleted    int64
	TuplesScanned    int64
	IndexLookups     int64 // hash-index equality probes
	IndexRangeProbes int64 // ordered-index range probes
	InternHits       int64 // string payloads deduplicated at insert
	BatchInserts     int64 // bulk InsertBatch storage operations
	PagesRead        int64 // simulated I/O
	PagesWritten     int64 // simulated I/O

	// Relations describes each WM relation's cardinality and
	// indexes at snapshot time. It is a point-in-time catalog view, not
	// a counter: Snapshot.Delta keeps the newer snapshot's value, and
	// snapshots rebuilt from raw counter maps leave it empty.
	Relations []RelationStorage
}

// MatchStats counts match-maintenance operations.
type MatchStats struct {
	NodeActivations  int64
	TokensStored     int64
	TokensDeleted    int64
	JoinsComputed    int64
	PatternsStored   int64
	PatternsDeleted  int64
	PatternSearches  int64
	CondTuplesStored int64
	FalseDrops       int64
	CandidateChecks  int64
}

// ExecutionStats counts conflict-set and executor operations.
type ExecutionStats struct {
	Instantiations int64
	Retractions    int64
	RuleFirings    int64
	TxnCommits     int64
	TxnAborts      int64
	SerialOps      int64
	MaintenanceOps int64
}

// BatchStats counts set-oriented batch-pipeline operations.
type BatchStats struct {
	Deltas       int64 // batches applied set-at-a-time
	Tuples       int64 // tuples carried by those batches
	Propagations int64 // per-(class,direction) maintenance passes
}

// DurabilityStats counts write-ahead-log and recovery operations.
type DurabilityStats struct {
	WALAppends     int64 // committed units (txns + batches) logged
	WALRecords     int64 // individual records written
	WALBytes       int64 // bytes appended to the log
	WALSyncs       int64 // fsyncs issued by the sync policy
	WALCheckpoints int64 // checkpoint compactions completed
	RecoveryTxns   int64 // committed units replayed at Load
	RecoveryOps    int64 // WM operations replayed at Load
	RecoveryTuples int64 // checkpoint tuples restored at Load
	RecoveryNanos  int64 // wall time spent in recovery replay
}

// ServerStats counts server front-end and WAL group-commit operations
// (internal/server + wal.SyncGroup).
type ServerStats struct {
	Admitted     int64 // requests admitted past admission control
	Rejected     int64 // requests shed with 429 (queue full)
	Drained      int64 // in-flight requests finished during drain
	QueueClients int64 // high-water distinct clients waiting in the fair queue
	GroupCommits int64 // group fsyncs, each covering ≥1 waiting commit
	GroupWaiters int64 // commits whose durability rode a group fsync
	ReadOnly     int64 // 1 after a WAL failure flipped the system read-only
}

// ReplicationStats counts WAL log-shipping operations — the apply side
// on a replica, the feed side on a primary (internal/replica; see
// docs/REPLICATION.md).
type ReplicationStats struct {
	TxnsApplied  int64 // committed units applied from the feed
	OpsApplied   int64 // WM operations those units carried
	Bytes        int64 // raw WAL bytes mirrored into the local log
	Snapshots    int64 // bootstrap snapshots restored
	EpochFollows int64 // primary checkpoints mirrored locally
	Reconnects   int64 // feed connections (re)established
	LagBytes     int64 // gauge: bytes behind the primary at last heartbeat
	FeedsServed  int64 // feed connections served (primary side)
	FeedFrames   int64 // frames shipped to replicas (primary side)
	Promotions   int64 // replica→primary promotions completed
	FencedWrites int64 // writes rejected by stale-epoch fencing
}

// IntegrityStats counts audit, repair, and fault-containment
// operations.
type IntegrityStats struct {
	AuditRuns         int64 // audit passes (full or sampled)
	AuditRulesChecked int64 // rules examined across audits
	AuditDivergences  int64 // divergences detected
	AuditRepairs      int64 // divergences repaired
	MatcherRebuilds   int64 // matchers rebuilt from WM by an audit's repair
	PanicsContained   int64 // rule/maintenance panics absorbed
}

// PlannerStats counts cost-based join-planning operations.
type PlannerStats struct {
	PlansBuilt        int64 // plans compiled (first build + rebuilds)
	PlanCacheHits     int64 // executions served by a cached plan
	PlanInvalidations int64 // plans discarded on stats drift
}

// CacheHitRate is the fraction of planned executions served from the
// plan cache.
func (p PlannerStats) CacheHitRate() float64 {
	total := p.PlansBuilt + p.PlanCacheHits
	if total == 0 {
		return 0
	}
	return float64(p.PlanCacheHits) / float64(total)
}

// Snapshot is a typed, immutable copy of the system's operation
// counters, grouped by subsystem. Counters holds every raw counter by
// name, including any not covered by the typed sections.
type Snapshot struct {
	Storage     StorageStats
	Match       MatchStats
	Planner     PlannerStats
	Execution   ExecutionStats
	Batch       BatchStats
	Durability  DurabilityStats
	Server      ServerStats
	Replication ReplicationStats
	Integrity   IntegrityStats
	Counters    map[string]int64
}

// Metrics snapshots the operation counters accumulated so far, plus the
// per-relation storage description of the live catalog.
func (s *System) Metrics() Snapshot {
	sn := newSnapshot(s.stats.Snapshot())
	for _, name := range s.db.Names() {
		rel, err := s.db.Lookup(name)
		if err != nil {
			continue
		}
		st := rel.Stats()
		rs := RelationStorage{Name: name, Tuples: st.Tuples}
		for _, ix := range st.Indexes {
			rs.Indexes = append(rs.Indexes, IndexInfo{Attr: ix.Attr, Pos: ix.Pos, Distinct: ix.Distinct})
		}
		sn.Storage.Relations = append(sn.Storage.Relations, rs)
	}
	return sn
}

// CounterSet exposes the live counter bag the system increments — the
// hook the server front end uses to land its admission counters
// (server_admitted, server_rejected, server_drained) in the same
// Metrics() snapshot as everything else. Safe for concurrent use.
func (s *System) CounterSet() *metrics.Set { return s.stats }

// newSnapshot builds the typed sections from a raw counter map.
func newSnapshot(m map[string]int64) Snapshot {
	return Snapshot{
		Storage: StorageStats{
			TuplesInserted:   m["tuples_inserted"],
			TuplesDeleted:    m["tuples_deleted"],
			TuplesScanned:    m["tuples_scanned"],
			IndexLookups:     m["index_lookups"],
			IndexRangeProbes: m["index_range_probes"],
			InternHits:       m["intern_hits"],
			BatchInserts:     m["batch_inserts"],
			PagesRead:        m["pages_read"],
			PagesWritten:     m["pages_written"],
		},
		Match: MatchStats{
			NodeActivations:  m["node_activations"],
			TokensStored:     m["tokens_stored"],
			TokensDeleted:    m["tokens_deleted"],
			JoinsComputed:    m["joins_computed"],
			PatternsStored:   m["patterns_stored"],
			PatternsDeleted:  m["patterns_deleted"],
			PatternSearches:  m["pattern_searches"],
			CondTuplesStored: m["cond_tuples_stored"],
			FalseDrops:       m["false_drops"],
			CandidateChecks:  m["candidate_checks"],
		},
		Planner: PlannerStats{
			PlansBuilt:        m["plans_built"],
			PlanCacheHits:     m["plan_cache_hits"],
			PlanInvalidations: m["plan_invalidations"],
		},
		Execution: ExecutionStats{
			Instantiations: m["instantiations"],
			Retractions:    m["retractions"],
			RuleFirings:    m["rule_firings"],
			TxnCommits:     m["txn_commits"],
			TxnAborts:      m["txn_aborts"],
			SerialOps:      m["serial_ops"],
			MaintenanceOps: m["maintenance_ops"],
		},
		Batch: BatchStats{
			Deltas:       m["batch_deltas"],
			Tuples:       m["batch_tuples"],
			Propagations: m["batch_propagations"],
		},
		Durability: DurabilityStats{
			WALAppends:     m["wal_appends"],
			WALRecords:     m["wal_records"],
			WALBytes:       m["wal_bytes"],
			WALSyncs:       m["wal_syncs"],
			WALCheckpoints: m["wal_checkpoints"],
			RecoveryTxns:   m["recovery_txns"],
			RecoveryOps:    m["recovery_ops"],
			RecoveryTuples: m["recovery_tuples"],
			RecoveryNanos:  m["recovery_ns"],
		},
		Server: ServerStats{
			Admitted:     m["server_admitted"],
			Rejected:     m["server_rejected"],
			Drained:      m["server_drained"],
			QueueClients: m["server_queue_clients"],
			GroupCommits: m["wal_group_commits"],
			GroupWaiters: m["wal_group_waiters"],
			ReadOnly:     m["read_only"],
		},
		Replication: ReplicationStats{
			TxnsApplied:  m["replica_txns_applied"],
			OpsApplied:   m["replica_ops_applied"],
			Bytes:        m["replica_bytes"],
			Snapshots:    m["replica_snapshots"],
			EpochFollows: m["replica_epoch_follows"],
			Reconnects:   m["replica_reconnects"],
			LagBytes:     m["replica_lag_bytes"],
			FeedsServed:  m["feeds_served"],
			FeedFrames:   m["feed_frames"],
			Promotions:   m["promotions"],
			FencedWrites: m["fenced_writes"],
		},
		Integrity: IntegrityStats{
			AuditRuns:         m["audit_runs"],
			AuditRulesChecked: m["audit_rules_checked"],
			AuditDivergences:  m["audit_divergences"],
			AuditRepairs:      m["audit_repairs"],
			MatcherRebuilds:   m["matcher_rebuilds"],
			PanicsContained:   m["panics_contained"],
		},
		Counters: m,
	}
}

// Delta returns this snapshot minus prev, counter by counter — the
// activity between two Metrics calls. Counters keeps every key present
// in either snapshot (zero deltas included for keys present in both).
// Storage.Relations, a point-in-time catalog view rather than a
// counter, is carried over from the newer snapshot unchanged.
func (sn Snapshot) Delta(prev Snapshot) Snapshot {
	m := make(map[string]int64, len(sn.Counters))
	for k, v := range sn.Counters {
		m[k] = v - prev.Counters[k]
	}
	for k, v := range prev.Counters {
		if _, seen := sn.Counters[k]; !seen {
			m[k] = -v
		}
	}
	out := newSnapshot(m)
	out.Storage.Relations = sn.Storage.Relations
	return out
}

// String renders the snapshot for display: every raw counter in sorted
// order, then one line per WM relation with its cardinality and
// indexes (when the snapshot carries the catalog view). This replaces formatting the deprecated Stats() map.
func (sn Snapshot) String() string {
	keys := make([]string, 0, len(sn.Counters))
	for k := range sn.Counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%-24s %d\n", k, sn.Counters[k])
	}
	for _, rs := range sn.Storage.Relations {
		fmt.Fprintf(&b, "storage/%-16s tuples=%d", rs.Name, rs.Tuples)
		for _, ix := range rs.Indexes {
			fmt.Fprintf(&b, " ix(%s)=%d", ix.Attr, ix.Distinct)
		}
		b.WriteByte('\n')
	}
	if sv := sn.Server; sv.Admitted|sv.Rejected|sv.Drained|sv.GroupCommits|sv.GroupWaiters|sv.ReadOnly != 0 {
		fmt.Fprintf(&b, "server admitted=%d rejected=%d drained=%d group_commits=%d group_waiters=%d read_only=%d\n",
			sv.Admitted, sv.Rejected, sv.Drained, sv.GroupCommits, sv.GroupWaiters, sv.ReadOnly)
	}
	if rp := sn.Replication; rp.TxnsApplied|rp.Bytes|rp.Snapshots|rp.FeedsServed|rp.Promotions|rp.FencedWrites != 0 {
		fmt.Fprintf(&b, "replication txns=%d ops=%d bytes=%d snapshots=%d lag_bytes=%d feeds=%d frames=%d promotions=%d fenced=%d\n",
			rp.TxnsApplied, rp.OpsApplied, rp.Bytes, rp.Snapshots, rp.LagBytes, rp.FeedsServed, rp.FeedFrames, rp.Promotions, rp.FencedWrites)
	}
	return b.String()
}

// Plan returns the active plan for the named rule: the cached plan
// with the most executions (so its actual cardinalities are the
// best-populated), or a freshly built full-derivation plan when the
// rule has not been planned yet.
func (s *System) Plan(rule string) (*Plan, error) {
	plans, err := s.Plans(rule)
	if err != nil {
		return nil, err
	}
	best := plans[0]
	for _, p := range plans[1:] {
		if p.Execs() > best.Execs() {
			best = p
		}
	}
	return best, nil
}

// Plans returns every compiled plan for the named rule — one per delta
// class the matcher has seeded evaluations from, plus the
// full-derivation plan (built on demand, so the slice is never empty).
// Plans are live: their actual cardinalities keep accumulating.
func (s *System) Plans(rule string) ([]*Plan, error) {
	r, ok := s.set.RuleByName(rule)
	if !ok {
		return nil, fmt.Errorf("prodsys: %w %q", ErrUnknownRule, rule)
	}
	s.planner.Plan(r, -1) // ensure at least the full-derivation plan exists
	return s.planner.Plans(r), nil
}

// planText renders every plan of the named rule for Tracer.Explain
// ("" when the rule is unknown or not yet planned).
func (s *System) planText(rule string) string {
	r, ok := s.set.RuleByName(rule)
	if !ok {
		return ""
	}
	plans := s.planner.Plans(r)
	if len(plans) == 0 {
		return ""
	}
	var b strings.Builder
	for _, p := range plans {
		b.WriteString(p.String())
	}
	return b.String()
}

// RunContext is Run honoring ctx: cancellation is observed between
// recognize-act cycles, so a fired action always completes its
// maintenance before the run stops with ctx.Err().
func (s *System) RunContext(ctx context.Context) (Result, error) {
	r, err := s.eng.RunSerialContext(ctx)
	return Result(r), err
}

// RunConcurrentContext is RunConcurrent honoring ctx: cancellation is
// observed between transaction rounds and before each transaction
// enters the maintenance section; in-flight transactions complete or
// abort normally.
func (s *System) RunConcurrentContext(ctx context.Context) (Result, error) {
	r, err := s.eng.RunConcurrentContext(ctx)
	return Result(r), err
}
