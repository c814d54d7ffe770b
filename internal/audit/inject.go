package audit

import (
	"fmt"
	"math/rand"
	"sync"

	"prodsys/internal/conflict"
	"prodsys/internal/joiner"
	"prodsys/internal/match"
	"prodsys/internal/relation"
	"prodsys/internal/trace"
)

// FaultInjector wraps a matcher and corrupts its derived state — Mark
// counters, beta tokens, markers, index entries, or conflict-set
// instantiations — either on demand (Corrupt) or every EveryN forwarded
// maintenance calls, simulating the silent state damage the auditor
// exists to catch. It forwards the whole matcher contract to the inner
// matcher, so an Auditor over the wrapper audits the real state.
type FaultInjector struct {
	inner  match.Matcher
	everyN int

	mu       sync.Mutex
	rng      *rand.Rand
	calls    int
	injected []string
}

// NewFaultInjector wraps inner. seed makes the corruption sequence
// reproducible; everyN <= 0 disables automatic injection (Corrupt still
// works on demand).
func NewFaultInjector(inner match.Matcher, seed int64, everyN int) *FaultInjector {
	return &FaultInjector{inner: inner, everyN: everyN, rng: rand.New(rand.NewSource(seed))}
}

// Name identifies the wrapped algorithm.
func (f *FaultInjector) Name() string { return f.inner.Name() }

// ConflictSet exposes the wrapped matcher's conflict set.
func (f *FaultInjector) ConflictSet() *conflict.Set { return f.inner.ConflictSet() }

// SetTracer forwards the tracer to the wrapped matcher.
func (f *FaultInjector) SetTracer(tr *trace.Tracer) { f.inner.SetTracer(tr) }

// SetPlanner forwards the planner to the wrapped matcher.
func (f *FaultInjector) SetPlanner(p *joiner.Planner) { f.inner.SetPlanner(p) }

// Insert forwards the insertion, then maybe injects a fault.
func (f *FaultInjector) Insert(class string, id relation.TupleID, t relation.Tuple) error {
	err := f.inner.Insert(class, id, t)
	f.tick()
	return err
}

// Delete forwards the deletion, then maybe injects a fault.
func (f *FaultInjector) Delete(class string, id relation.TupleID, t relation.Tuple) error {
	err := f.inner.Delete(class, id, t)
	f.tick()
	return err
}

// InsertBatch forwards the batch; the whole batch counts as one
// maintenance call.
func (f *FaultInjector) InsertBatch(class string, entries []relation.DeltaEntry) error {
	err := f.inner.InsertBatch(class, entries)
	f.tick()
	return err
}

// DeleteBatch mirrors InsertBatch for removals.
func (f *FaultInjector) DeleteBatch(class string, entries []relation.DeltaEntry) error {
	err := f.inner.DeleteBatch(class, entries)
	f.tick()
	return err
}

// AuditDerived forwards to the wrapped matcher.
func (f *FaultInjector) AuditDerived(db *relation.DB, only map[string]bool, emit func(match.Divergence)) {
	f.inner.AuditDerived(db, only, emit)
}

// RebuildRules forwards to the wrapped matcher.
func (f *FaultInjector) RebuildRules(db *relation.DB, only map[string]bool) error {
	return f.inner.RebuildRules(db, only)
}

// CorruptDerived corrupts the wrapped matcher's state with the caller's
// rng; the injector's own schedule uses Corrupt.
func (f *FaultInjector) CorruptDerived(rng *rand.Rand) string {
	return Corrupt(f.inner, rng)
}

// Corrupt damages the wrapped matcher's derived state now, using the
// injector's seeded rng, and returns a description of what was broken
// ("" when there was nothing to corrupt).
func (f *FaultInjector) Corrupt() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.corruptLocked()
}

// Injected returns descriptions of every corruption injected so far.
func (f *FaultInjector) Injected() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, len(f.injected))
	copy(out, f.injected)
	return out
}

func (f *FaultInjector) tick() {
	if f.everyN <= 0 {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls++
	if f.calls%f.everyN == 0 {
		f.corruptLocked()
	}
}

// corruptLocked requires f.mu.
func (f *FaultInjector) corruptLocked() string {
	desc := Corrupt(f.inner, f.rng)
	if desc != "" {
		f.injected = append(f.injected, desc)
	}
	return desc
}

// Corrupt damages m's derived state with rng and describes the damage:
// the matcher's own corruption (CorruptDerived) when it has derived state
// to break, otherwise one random unfired instantiation dropped from the
// conflict set. Returns "" only when both are empty.
func Corrupt(m match.Matcher, rng *rand.Rand) string {
	if desc := m.CorruptDerived(rng); desc != "" {
		return desc
	}
	items := m.ConflictSet().SelectAll()
	if len(items) == 0 {
		return ""
	}
	in := items[rng.Intn(len(items))]
	m.ConflictSet().Remove(in.Key())
	return fmt.Sprintf("conflict: dropped instantiation %s", in.KeyString())
}
