// Package conflict implements the conflict set of a production system:
// the rule instantiations whose LHS is currently satisfied, together with
// the selection (conflict-resolution) strategies of the Select phase.
//
// An instantiation pairs a rule with the specific working-memory tuples
// satisfying its positive condition elements, exactly as the Rete network
// outputs "the applicable productions ... together with the token that
// caused the rule to become active" (paper §2.2). Refraction — never
// firing the same instantiation twice — is enforced here, as in OPS5.
package conflict

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"

	"prodsys/internal/metrics"
	"prodsys/internal/relation"
	"prodsys/internal/rules"
	"prodsys/internal/trace"
)

// Instantiation is one satisfied rule together with the tuples that
// satisfy its positive condition elements.
type Instantiation struct {
	Rule *rules.Rule
	// TupleIDs is aligned with Rule.CEs; negated condition elements hold
	// zero.
	TupleIDs []relation.TupleID
	// Tuples snapshots the matched tuples (same alignment) for RHS
	// execution; negated positions are nil.
	Tuples []relation.Tuple
	// Bindings is the variable assignment of the match.
	Bindings rules.Bindings
	// Seq is the arrival order assigned by the conflict set.
	Seq uint64
}

// Key identifies the instantiation: rule name plus the matched tuple IDs.
func (in *Instantiation) Key() string {
	var b strings.Builder
	b.WriteString(in.Rule.Name)
	for _, id := range in.TupleIDs {
		b.WriteByte('|')
		b.WriteString(strconv.FormatUint(uint64(id), 10))
	}
	return b.String()
}

// Recency is the largest tuple ID among the matched tuples — the OPS5
// notion of how recent the supporting working memory is.
func (in *Instantiation) Recency() uint64 {
	var max uint64
	for _, id := range in.TupleIDs {
		if uint64(id) > max {
			max = uint64(id)
		}
	}
	return max
}

// String renders the instantiation for traces.
func (in *Instantiation) String() string {
	ids := make([]string, 0, len(in.TupleIDs))
	for i, id := range in.TupleIDs {
		if in.Rule.CEs[i].Negated {
			ids = append(ids, "¬")
			continue
		}
		ids = append(ids, fmt.Sprintf("%s:%d", in.Rule.CEs[i].Class, id))
	}
	return in.Rule.Name + "[" + strings.Join(ids, " ") + "]"
}

// tupleRef locates one tuple occurrence inside an instantiation.
type tupleRef struct {
	class string
	id    relation.TupleID
}

// tupleIndex maps a tuple to the keys of the instantiations it supports.
type tupleIndex map[tupleRef]map[string]struct{}

func (ix tupleIndex) link(ref tupleRef, key string) {
	set := ix[ref]
	if set == nil {
		set = make(map[string]struct{})
		ix[ref] = set
	}
	set[key] = struct{}{}
}

func (ix tupleIndex) unlink(ref tupleRef, key string) {
	if set := ix[ref]; set != nil {
		delete(set, key)
		if len(set) == 0 {
			delete(ix, ref)
		}
	}
}

// Set is the conflict set. All methods are safe for concurrent use.
type Set struct {
	mu      sync.Mutex
	items   map[string]*Instantiation
	byTuple tupleIndex
	// fired maps each refracted key to the tuples supporting it and
	// firedBy is the reverse index, so ForgetTuple can drop the keys a
	// deleted tuple supported: tuple IDs are never reused, so such a key
	// can never be derived again and its mark is dead weight.
	fired    map[string][]tupleRef
	firedBy  tupleIndex
	seq      uint64
	stats    *metrics.Set
	observer func(added bool, in *Instantiation)
	tr       *trace.Tracer
}

// SetTracer wires the execution tracer; Activation and Deactivation
// events are emitted for every instantiation entering or leaving the
// set. A nil tracer disables emission.
func (s *Set) SetTracer(tr *trace.Tracer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tr = tr
}

// SetObserver registers a callback invoked after every instantiation
// addition (added=true) and retraction (added=false) — the add and delete
// triggers of materialized-view maintenance [BUNE79] (§2.3). The callback
// runs while the set's lock is held and must not call back into the Set.
func (s *Set) SetObserver(fn func(added bool, in *Instantiation)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.observer = fn
}

// NewSet creates an empty conflict set. stats may be nil.
func NewSet(stats *metrics.Set) *Set {
	return &Set{
		items:   make(map[string]*Instantiation),
		byTuple: make(tupleIndex),
		fired:   make(map[string][]tupleRef),
		firedBy: make(tupleIndex),
		stats:   stats,
	}
}

// Add inserts an instantiation, returning false if it is already present.
func (s *Set) Add(in *Instantiation) bool {
	return s.AddAll([]*Instantiation{in}) == 1
}

// AddAll inserts a batch of instantiations under one lock acquisition —
// the conflict set's side of set-oriented maintenance — and returns how
// many were new.
func (s *Set) AddAll(ins []*Instantiation) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	added := 0
	for _, in := range ins {
		key := in.Key()
		if _, dup := s.items[key]; dup {
			continue
		}
		s.seq++
		in.Seq = s.seq
		s.items[key] = in
		for i, id := range in.TupleIDs {
			if in.Rule.CEs[i].Negated || id == 0 {
				continue
			}
			s.byTuple.link(tupleRef{class: in.Rule.CEs[i].Class, id: id}, key)
		}
		s.stats.Inc(metrics.Instantiations)
		if s.tr.Enabled() {
			s.tr.Emit(trace.Event{
				Kind: trace.KindActivation, At: s.tr.Now(),
				Rule: in.Rule.Name, CE: -1, ID: in.Seq, Extra: key,
			})
		}
		if s.observer != nil {
			s.observer(true, in)
		}
		added++
	}
	return added
}

// removeLocked unlinks one instantiation. Caller holds mu.
func (s *Set) removeLocked(key string) bool {
	in, ok := s.items[key]
	if !ok {
		return false
	}
	delete(s.items, key)
	for i, id := range in.TupleIDs {
		if in.Rule.CEs[i].Negated || id == 0 {
			continue
		}
		s.byTuple.unlink(tupleRef{class: in.Rule.CEs[i].Class, id: id}, key)
	}
	s.stats.Inc(metrics.Retractions)
	if s.tr.Enabled() {
		s.tr.Emit(trace.Event{
			Kind: trace.KindDeactivation, At: s.tr.Now(),
			Rule: in.Rule.Name, CE: -1, ID: in.Seq, Extra: key,
		})
	}
	if s.observer != nil {
		s.observer(false, in)
	}
	return true
}

// Remove deletes the instantiation with the given key, reporting whether
// it was present.
func (s *Set) Remove(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.removeLocked(key)
}

// RemoveByTuple retracts every instantiation supported by the given
// working-memory tuple (invoked when the tuple is deleted) and returns
// the retracted instantiations.
func (s *Set) RemoveByTuple(class string, id relation.TupleID) []*Instantiation {
	s.mu.Lock()
	defer s.mu.Unlock()
	ref := tupleRef{class: class, id: id}
	keys := s.byTuple[ref]
	out := make([]*Instantiation, 0, len(keys))
	for key := range keys {
		if in, ok := s.items[key]; ok {
			out = append(out, in)
		}
	}
	for _, in := range out {
		s.removeLocked(in.Key())
	}
	return out
}

// RemoveWhere retracts every instantiation for which pred returns true
// and returns the retracted instantiations.
func (s *Set) RemoveWhere(pred func(*Instantiation) bool) []*Instantiation {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*Instantiation
	for _, in := range s.items {
		if pred(in) {
			out = append(out, in)
		}
	}
	for _, in := range out {
		s.removeLocked(in.Key())
	}
	return out
}

// Contains reports whether the keyed instantiation is present.
func (s *Set) Contains(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.items[key]
	return ok
}

// Len returns the number of live instantiations.
func (s *Set) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.items)
}

// Items returns the live instantiations in deterministic (Seq) order.
func (s *Set) Items() []*Instantiation {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Instantiation, 0, len(s.items))
	for _, in := range s.items {
		out = append(out, in)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Keys returns the sorted keys of the live instantiations; the primary
// tool of the cross-matcher agreement tests.
func (s *Set) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.items))
	for k := range s.items {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// MarkFired records that an instantiation has fired, so refraction will
// keep it from being selected again even if re-derived — for instance
// after a negated condition element blocks and later unblocks it. The
// mark lasts until ForgetTuple reports one of the supporting tuples
// deleted; a key with no live instantiation is marked for good.
func (s *Set) MarkFired(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, marked := s.fired[key]; !marked {
		var refs []tupleRef
		if in := s.items[key]; in != nil {
			for i, id := range in.TupleIDs {
				if in.Rule.CEs[i].Negated || id == 0 {
					continue
				}
				ref := tupleRef{class: in.Rule.CEs[i].Class, id: id}
				refs = append(refs, ref)
				s.firedBy.link(ref, key)
			}
		}
		s.fired[key] = refs
	}
	s.removeLocked(key)
}

// HasFired reports whether the keyed instantiation already fired.
func (s *Set) HasFired(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, marked := s.fired[key]
	return marked
}

// FiredLen returns the number of refraction marks held.
func (s *Set) FiredLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.fired)
}

// ForgetTuple drops the refraction mark of every fired instantiation
// the given working-memory tuple supported. The engine calls it once a
// unit that deleted the tuple can no longer be rolled back.
func (s *Set) ForgetTuple(class string, id relation.TupleID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	gone := tupleRef{class: class, id: id}
	for key := range s.firedBy[gone] {
		for _, ref := range s.fired[key] {
			if ref != gone {
				s.firedBy.unlink(ref, key)
			}
		}
		delete(s.fired, key)
	}
	delete(s.firedBy, gone)
}

// Select picks the next instantiation to fire under the given strategy,
// skipping fired ones. It returns nil when no eligible instantiation
// exists (the production system halts, §2.1).
func (s *Set) Select(strategy Strategy) *Instantiation {
	s.mu.Lock()
	cands := make([]*Instantiation, 0, len(s.items))
	for key, in := range s.items {
		if _, marked := s.fired[key]; !marked {
			cands = append(cands, in)
		}
	}
	s.mu.Unlock()
	if len(cands) == 0 {
		return nil
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].Seq < cands[j].Seq })
	return strategy.Select(cands)
}

// SelectAll returns every eligible (unfired) instantiation in Seq order;
// the concurrent executor's batch selection.
func (s *Set) SelectAll() []*Instantiation {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Instantiation, 0, len(s.items))
	for key, in := range s.items {
		if _, marked := s.fired[key]; !marked {
			out = append(out, in)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Reset clears instantiations and refraction state.
func (s *Set) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.items = make(map[string]*Instantiation)
	s.byTuple = make(tupleIndex)
	s.fired = make(map[string][]tupleRef)
	s.firedBy = make(tupleIndex)
	s.seq = 0
}

// Strategy is a conflict-resolution policy: given a non-empty candidate
// list in Seq order, pick the instantiation to fire.
type Strategy interface {
	Name() string
	Select(cands []*Instantiation) *Instantiation
}

// FIFO fires instantiations in arrival order.
type FIFO struct{}

// Name implements Strategy.
func (FIFO) Name() string { return "fifo" }

// Select implements Strategy.
func (FIFO) Select(cands []*Instantiation) *Instantiation { return cands[0] }

// LEX approximates OPS5's LEX strategy: most recent supporting tuple
// first, then higher specificity, then arrival order.
type LEX struct{}

// Name implements Strategy.
func (LEX) Name() string { return "lex" }

// Select implements Strategy.
func (LEX) Select(cands []*Instantiation) *Instantiation {
	best := cands[0]
	for _, c := range cands[1:] {
		switch {
		case c.Recency() > best.Recency():
			best = c
		case c.Recency() == best.Recency() && c.Rule.Specificity > best.Rule.Specificity:
			best = c
		}
	}
	return best
}

// Priority fires rules in rule-set order (earlier definitions first),
// breaking ties by recency.
type Priority struct{}

// Name implements Strategy.
func (Priority) Name() string { return "priority" }

// Select implements Strategy.
func (Priority) Select(cands []*Instantiation) *Instantiation {
	best := cands[0]
	for _, c := range cands[1:] {
		switch {
		case c.Rule.Index < best.Rule.Index:
			best = c
		case c.Rule.Index == best.Rule.Index && c.Recency() > best.Recency():
			best = c
		}
	}
	return best
}

// Random selects uniformly with a seeded source, modelling the paper's
// "a single transaction is arbitrarily selected from the conflict set".
type Random struct {
	Rand *rand.Rand
}

// NewRandom builds a Random strategy with the given seed.
func NewRandom(seed int64) *Random {
	return &Random{Rand: rand.New(rand.NewSource(seed))}
}

// Name implements Strategy.
func (*Random) Name() string { return "random" }

// Select implements Strategy.
func (r *Random) Select(cands []*Instantiation) *Instantiation {
	return cands[r.Rand.Intn(len(cands))]
}
