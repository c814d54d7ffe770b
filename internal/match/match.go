// Package match defines the one contract every matching algorithm in
// this repository implements: the Rete network (internal/rete), the
// matching-pattern algorithm that is the paper's contribution
// (internal/core), and the filter-then-verify matchers of
// internal/recheck — the paper's simplified re-evaluation algorithm and
// the [STON86a] baselines Basic Locking and Predicate Indexing.
//
// A matcher observes working-memory changes and maintains a conflict set.
// The engine owns the WM relations; every write unit — a batch, a rule
// firing, a replayed or shipped log unit, a restore — first changes WM,
// then hands the matcher the unit's net delta once through ApplyDelta,
// mirroring Figure 2 of the paper: changes to working memory propagate
// into the match network, which emits changes to the conflict set.
//
// Deltas arrive set-at-a-time through InsertBatch/DeleteBatch — the
// paper's central claim that a DBMS wins by handling WM changes as sets
// rather than tuple-at-a-time (§4.2, §5.1); a one-tuple change is a
// one-entry batch, so each matcher has one entry path per direction.
// Every matcher also answers the integrity auditor (AuditDerived,
// RebuildRules, CorruptDerived); one whose only derived state is the
// conflict set implements them as no-ops.
//
// Implementations need no locks: the engine calls every method under its
// maintenance mutex, one call at a time.
package match

import (
	"math/rand"

	"prodsys/internal/conflict"
	"prodsys/internal/joiner"
	"prodsys/internal/relation"
	"prodsys/internal/trace"
)

// Matcher detects the rules applicable after each working-memory change.
type Matcher interface {
	// Name identifies the algorithm in experiment output.
	Name() string
	// ConflictSet exposes the maintained conflict set.
	ConflictSet() *conflict.Set
	// InsertBatch notifies the matcher that every entry's tuple was stored
	// in the class's WM relation. The WM already reflects the whole batch.
	InsertBatch(class string, entries []relation.DeltaEntry) error
	// DeleteBatch notifies the matcher that every entry's tuple was
	// removed; entry tuples hold the values at removal time.
	DeleteBatch(class string, entries []relation.DeltaEntry) error
	// SetTracer wires the execution tracer: condition scans, joins and
	// propagations are emitted as events. A nil tracer disables emission.
	SetTracer(*trace.Tracer)
	// SetPlanner routes LHS joins through the cost-based join planner; nil
	// restores the fixed source-order evaluation. Matchers with their own
	// incremental network (Rete) ignore it.
	SetPlanner(*joiner.Planner)
	// AuditDerived recomputes the ground truth of the matcher's derived
	// state beyond the conflict set from the WM relations in db and emits
	// one Divergence per disagreement. only, when non-nil, restricts the
	// audit to the named rules (the sampled mode); nil means everything.
	AuditDerived(db *relation.DB, only map[string]bool, emit func(Divergence))
	// RebuildRules rebuilds the derived state from the WM relations. only,
	// when non-nil, limits the rebuild to the named rules' state; nil
	// demands a full rebuild. Matchers whose internal sharing makes
	// per-rule surgery unsafe may always rebuild fully.
	RebuildRules(db *relation.DB, only map[string]bool) error
	// CorruptDerived deliberately damages the derived state — the
	// fault-injection hook the detection tests drive — and describes the
	// damage, or returns "" when there is nothing to corrupt.
	CorruptDerived(rng *rand.Rand) string
}

// ApplyDelta is the maintenance process of one write unit: it drains the
// unit's net delta through the matcher — deletions first, then
// insertions, class by class in sorted order — after the caller applied
// every change to the WM relations, so the matchers that re-derive from
// working memory see the unit's final state. The engine calls it from one
// place for every kind of unit, so a log maintains alike on every route.
// It returns the number of batch calls made, one per non-empty (class,
// direction) group.
func ApplyDelta(m Matcher, d *relation.Delta) (int, error) {
	classes := d.Classes()
	passes := 0
	for _, class := range classes {
		if del := d.Deletes(class); len(del) > 0 {
			passes++
			if err := m.DeleteBatch(class, del); err != nil {
				return passes, err
			}
		}
	}
	for _, class := range classes {
		if ins := d.Inserts(class); len(ins) > 0 {
			passes++
			if err := m.InsertBatch(class, ins); err != nil {
				return passes, err
			}
		}
	}
	return passes, nil
}
