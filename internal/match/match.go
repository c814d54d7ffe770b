// Package match defines the one contract every matching algorithm in
// this repository implements: the Rete network (internal/rete) and the
// filter-then-verify matchers of internal/recheck — the matching-pattern
// algorithm that is the paper's contribution, the paper's simplified
// re-evaluation algorithm and the [STON86a] baselines Basic Locking and
// Predicate Indexing.
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
// Every matcher also lists its derived state beyond the conflict set
// (DumpDerived) for the integrity auditor, which diffs the listing
// against that of a twin built from scratch over the same working
// memory (internal/audit); one whose only derived state is the conflict
// set lists nothing.
//
// Implementations need no locks: the engine calls every method under its
// maintenance mutex, one call at a time.
package match

import (
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
	// DumpDerived lists the derived state beyond the conflict set, one
	// line per entry, attributed to the rule it serves: rule is "" for a
	// structure shared across rules (a Rete alpha memory), listed only
	// when only is nil. only, when non-nil, restricts the listing to the
	// named rules. Lines name condition elements by index and tuples by
	// ID, never by how the state was compiled or reached, so two
	// matchers of one name over the same WM list the same lines iff their
	// derived state agrees.
	DumpDerived(only map[string]bool, emit func(rule, line string))
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
