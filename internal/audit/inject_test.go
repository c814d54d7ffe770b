package audit

import (
	"math/rand"
	"sync"

	"prodsys/internal/match"
	"prodsys/internal/relation"
)

// FaultInjector wraps a matcher and corrupts its derived state — Mark
// counters, beta tokens, markers, index entries, or conflict-set
// instantiations — either on demand (Corrupt) or every EveryN forwarded
// maintenance calls, simulating the silent state damage the auditor
// exists to catch. It forwards the whole matcher contract to the inner
// matcher, so an Auditor over the wrapper audits the real state.
type FaultInjector struct {
	match.Matcher
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
	return &FaultInjector{Matcher: inner, everyN: everyN, rng: rand.New(rand.NewSource(seed))}
}

// Insert forwards the insertion, then maybe injects a fault.
func (f *FaultInjector) Insert(class string, id relation.TupleID, t relation.Tuple) error {
	return f.tick(f.Matcher.Insert(class, id, t))
}

// Delete forwards the deletion, then maybe injects a fault.
func (f *FaultInjector) Delete(class string, id relation.TupleID, t relation.Tuple) error {
	return f.tick(f.Matcher.Delete(class, id, t))
}

// InsertBatch forwards the batch, then maybe injects a fault.
func (f *FaultInjector) InsertBatch(class string, entries []relation.DeltaEntry) error {
	return f.tick(f.Matcher.InsertBatch(class, entries))
}

// DeleteBatch forwards the batch, then maybe injects a fault.
func (f *FaultInjector) DeleteBatch(class string, entries []relation.DeltaEntry) error {
	return f.tick(f.Matcher.DeleteBatch(class, entries))
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
	return append([]string(nil), f.injected...)
}

// tick counts one forwarded maintenance call, corrupting every everyN-th,
// and passes err through.
func (f *FaultInjector) tick(err error) error {
	if f.everyN <= 0 {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls++
	if f.calls%f.everyN == 0 {
		f.corruptLocked()
	}
	return err
}

// corruptLocked requires f.mu.
func (f *FaultInjector) corruptLocked() string {
	desc := Corrupt(f.Matcher, f.rng)
	if desc != "" {
		f.injected = append(f.injected, desc)
	}
	return desc
}
