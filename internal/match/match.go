// Package match defines the interface every matching algorithm in this
// repository implements: the classic Rete network (internal/rete), the
// paper's simplified re-evaluation algorithm (internal/requery), and
// the matching-pattern algorithm that is the paper's contribution
// (internal/core).
//
// A matcher observes working-memory changes and maintains a conflict set.
// The engine owns the WM relations; it notifies the matcher after each
// insertion and before each deletion, mirroring Figure 2 of the paper:
// changes to working memory propagate into the match network, which emits
// changes to the conflict set.
//
// Matchers that additionally implement BatchMatcher process whole deltas
// set-at-a-time — the paper's central claim that a DBMS wins by handling
// WM changes as sets rather than tuple-at-a-time (§4.2, §5.1). The
// package-level InsertBatch/DeleteBatch adapters fall back to per-tuple
// notification for matchers without a native batch path.
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
	// Insert notifies the matcher that tuple t was stored in the class's
	// WM relation under the given ID.
	Insert(class string, id relation.TupleID, t relation.Tuple) error
	// Delete notifies the matcher that the identified tuple is being
	// removed. t is the tuple's value at removal time.
	Delete(class string, id relation.TupleID, t relation.Tuple) error
	// ConflictSet exposes the maintained conflict set.
	ConflictSet() *conflict.Set
}

// Traceable is implemented by matchers that can emit structured
// execution events (condition scans, joins, propagations) through a
// trace.Tracer.
type Traceable interface {
	SetTracer(*trace.Tracer)
}

// AttachTracer hands the tracer to the matcher if it supports tracing.
func AttachTracer(m Matcher, tr *trace.Tracer) {
	if t, ok := m.(Traceable); ok {
		t.SetTracer(tr)
	}
}

// Planned is implemented by matchers whose LHS evaluation goes through
// internal/joiner and can therefore be routed through a cost-based
// join planner. A nil planner restores the fixed source-order
// evaluation.
type Planned interface {
	SetPlanner(*joiner.Planner)
}

// AttachPlanner hands the planner to the matcher if its join paths
// support planning; matchers with their own incremental networks
// (Rete) ignore it.
func AttachPlanner(m Matcher, p *joiner.Planner) {
	if x, ok := m.(Planned); ok {
		x.SetPlanner(p)
	}
}
