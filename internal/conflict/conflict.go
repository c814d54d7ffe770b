// Package conflict implements the conflict set of a production system:
// the rule instantiations whose LHS is currently satisfied, together with
// the selection (conflict-resolution) strategies of the Select phase.
//
// An instantiation pairs a rule with the specific working-memory tuples
// satisfying its positive condition elements, exactly as the Rete network
// outputs "the applicable productions ... together with the token that
// caused the rule to become active" (paper §2.2). Refraction — never
// firing the same instantiation twice — is enforced here, as in OPS5.
//
// The set is an agenda: live instantiations sit on a doubly-linked list in
// arrival (Seq) order, so Select under FIFO takes the first eligible one
// from the head and the other strategies see their candidates already in
// order, with no per-cycle sort. Instantiations are keyed by Key, a
// comparable struct of the rule's index and its tuple IDs; the string
// form "rule|id|id" is rendered only for the log, traces and Keys.
package conflict

import (
	"encoding/binary"
	"fmt"
	"math"
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
// satisfy its positive condition elements. It belongs to at most one Set.
// Its variable bindings are a function of those tuples (§5.1: the tuples
// "must be selected before executing the RHS actions"), so it carries
// none: Rule.Value reads one from Tuples on demand, and Rule.Fill loads
// them all into a slot vector.
type Instantiation struct {
	Rule *rules.Rule
	// TupleIDs is aligned with Rule.CEs; negated condition elements hold
	// zero.
	TupleIDs []relation.TupleID
	// Tuples holds the matched stored tuples (same alignment), which are
	// immutable; negated positions are nil.
	Tuples []relation.Tuple
	// Seq is the arrival order assigned by the conflict set.
	Seq uint64

	// The owning Set's bookkeeping, guarded by its mutex: the agenda
	// links, the supporting-tuple links, and whether the key was already
	// fired when the instantiation arrived (a re-derivation that
	// refraction keeps from being selected).
	prev, next *Instantiation
	sup        *support
	refracted  bool
}

// NewInstantiation returns an instantiation of r over copies of ids and
// tuples — the slices a join lends its emit callback — made in one
// allocation for rules of up to eight condition elements.
func NewInstantiation(r *rules.Rule, ids []relation.TupleID, tuples []relation.Tuple) *Instantiation {
	n := len(ids)
	var in *Instantiation
	var idBuf []relation.TupleID
	var tupBuf []relation.Tuple
	switch {
	case n <= 2:
		x := new(struct {
			in     Instantiation
			ids    [2]relation.TupleID
			tuples [2]relation.Tuple
		})
		in, idBuf, tupBuf = &x.in, x.ids[:n], x.tuples[:n]
	case n <= 4:
		x := new(struct {
			in     Instantiation
			ids    [4]relation.TupleID
			tuples [4]relation.Tuple
		})
		in, idBuf, tupBuf = &x.in, x.ids[:n], x.tuples[:n]
	case n <= 8:
		x := new(struct {
			in     Instantiation
			ids    [8]relation.TupleID
			tuples [8]relation.Tuple
		})
		in, idBuf, tupBuf = &x.in, x.ids[:n], x.tuples[:n]
	default:
		in, idBuf, tupBuf = new(Instantiation), make([]relation.TupleID, n), make([]relation.Tuple, n)
	}
	copy(idBuf, ids)
	copy(tupBuf, tuples)
	in.Rule, in.TupleIDs, in.Tuples = r, idBuf, tupBuf
	return in
}

// inlineIDs is how many tuple IDs a Key holds without allocating.
const inlineIDs = 6

// Key identifies an instantiation: its rule's position in the rule set
// plus the matched tuple IDs. It is comparable, so the conflict set keys
// its maps on it directly. Keys of one Set come from the rules.Set it was
// created with.
type Key struct {
	rule int32
	// ids holds the tuple IDs of a rule with at most inlineIDs condition
	// elements when each fits in 32 bits. Otherwise every ID is packed
	// into spill, 8 little-endian bytes each, and ids stays zero.
	ids   [inlineIDs]uint32
	spill string
}

// Key returns the instantiation's key. It allocates only for rules with
// more than inlineIDs condition elements, or a tuple ID of 2^32 or more.
func (in *Instantiation) Key() Key { return makeKey(in.Rule.Index, in.TupleIDs) }

func makeKey(rule int, ids []relation.TupleID) Key {
	k := Key{rule: int32(rule)}
	if len(ids) <= inlineIDs {
		inline := true
		for i, id := range ids {
			k.ids[i] = uint32(id)
			inline = inline && id <= math.MaxUint32
		}
		if inline {
			return k
		}
		k.ids = [inlineIDs]uint32{}
	}
	var b strings.Builder
	b.Grow(8 * len(ids))
	var buf [8]byte
	for _, id := range ids {
		binary.LittleEndian.PutUint64(buf[:], uint64(id))
		b.Write(buf[:])
	}
	k.spill = b.String()
	return k
}

// KeyString renders the instantiation's key as "rule|id|id" (one ID per
// condition element, zero at negated ones): the form the write-ahead
// log, traces and Keys carry.
func (in *Instantiation) KeyString() string {
	var b strings.Builder
	b.Grow(len(in.Rule.Name) + 8*len(in.TupleIDs))
	b.WriteString(in.Rule.Name)
	var buf [20]byte
	for _, id := range in.TupleIDs {
		b.WriteByte('|')
		b.Write(strconv.AppendUint(buf[:0], uint64(id), 10))
	}
	return b.String()
}

// ParseKey resolves a rendered key against the rule set that produced
// it. ok is false when no rule of set has the name, or the key's ID count
// differs from the rule's condition elements.
func ParseKey(set *rules.Set, s string) (Key, bool) {
	// Rule names may contain '|', so try each split point.
	for i := strings.IndexByte(s, '|'); i >= 0; {
		if r, ok := set.RuleByName(s[:i]); ok {
			if ids, ok := parseIDs(s[i+1:], len(r.CEs)); ok {
				return makeKey(r.Index, ids), true
			}
		}
		j := strings.IndexByte(s[i+1:], '|')
		if j < 0 {
			break
		}
		i += 1 + j
	}
	return Key{}, false
}

func parseIDs(s string, n int) ([]relation.TupleID, bool) {
	fields := strings.Split(s, "|")
	if len(fields) != n {
		return nil, false
	}
	ids := make([]relation.TupleID, n)
	for i, f := range fields {
		id, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return nil, false
		}
		ids[i] = relation.TupleID(id)
	}
	return ids, true
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

// tupleRef names one working-memory tuple: its class, by the rule set's
// dense class ID, and its ID within the class.
type tupleRef struct {
	class int32
	id    relation.TupleID
}

// support is what an instantiation rests on: one link per supporting
// tuple. While the instantiation is live the links thread it into
// byTuple. When it fires they move to firedBy, and the support outlives
// the instantiation as its refraction mark.
type support struct {
	in     *Instantiation // the live instantiation; nil once it left the set
	rule   *rules.Rule
	links  []tupleLink
	inline [2]tupleLink // the links of rules with at most two positive CEs
}

// key rebuilds the instantiation's key from the links, the IDs of
// negated condition elements being zero.
func (sup *support) key() Key {
	n := len(sup.rule.CEs)
	var buf [inlineIDs]relation.TupleID
	ids := buf[:min(n, inlineIDs)]
	if n > inlineIDs {
		ids = make([]relation.TupleID, n)
	}
	for _, l := range sup.links {
		ids[l.ce] = l.id
	}
	return makeKey(sup.rule.Index, ids)
}

// tupleLink is one node of a per-tuple list. Each list is circular and
// doubly linked, its head held by a tupleIndex. Links are appended as
// instantiations arrive, so a byTuple list is in Seq order, and the two
// links of an instantiation that uses one tuple twice are adjacent.
type tupleLink struct {
	sup        *support
	prev, next *tupleLink
	id         relation.TupleID
	class      int32 // the tuple's class ID
	ce         int32 // the condition element the tuple fills
}

func (l *tupleLink) ref() tupleRef { return tupleRef{class: l.class, id: l.id} }

// tupleIndex maps a tuple to the head of its list of links.
type tupleIndex map[tupleRef]*tupleLink

func (ix tupleIndex) link(l *tupleLink) {
	head := ix[l.ref()]
	if head == nil {
		l.prev, l.next = l, l
		ix[l.ref()] = l
		return
	}
	tail := head.prev
	l.prev, l.next = tail, head
	tail.next, head.prev = l, l
}

func (ix tupleIndex) unlink(l *tupleLink) {
	if l.next == l {
		delete(ix, l.ref())
	} else {
		l.prev.next, l.next.prev = l.next, l.prev
		if ix[l.ref()] == l {
			ix[l.ref()] = l.next
		}
	}
	l.prev, l.next = nil, nil
}

// Set is the conflict set. All methods are safe for concurrent use.
type Set struct {
	mu sync.Mutex
	// rules resolves class names to the dense class IDs tuples are
	// indexed by.
	rules *rules.Set
	items map[Key]*Instantiation
	// head and tail bound the agenda: every live instantiation, in Seq
	// order.
	head, tail *Instantiation
	byTuple    tupleIndex
	// fired holds the refraction marks. A mark made while its
	// instantiation was live keeps that instantiation's support, linked
	// into firedBy, so ForgetTuple can drop the marks a deleted tuple
	// supported: tuple IDs are never reused, so such a key can never be
	// derived again. A nil support marks a key for good.
	fired    map[Key]*support
	firedBy  tupleIndex
	cands    sync.Pool // *[]*Instantiation: Select's candidate buffers
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

// NewSet creates an empty conflict set for the instantiations of rs's
// rules. stats may be nil.
func NewSet(rs *rules.Set, stats *metrics.Set) *Set {
	return &Set{
		rules:   rs,
		items:   make(map[Key]*Instantiation),
		byTuple: make(tupleIndex),
		fired:   make(map[Key]*support),
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
		s.linkLocked(in)
		_, in.refracted = s.fired[key]
		s.stats.Inc(metrics.Instantiations)
		if s.tr.Enabled() {
			s.tr.Emit(trace.Event{
				Kind: trace.KindActivation, At: s.tr.Now(),
				Rule: in.Rule.Name, CE: -1, ID: in.Seq, Extra: in.KeyString(),
			})
		}
		if s.observer != nil {
			s.observer(true, in)
		}
		added++
	}
	return added
}

// linkLocked appends in to the agenda and threads a fresh support into
// byTuple. Caller holds mu.
func (s *Set) linkLocked(in *Instantiation) {
	in.prev, in.next = s.tail, nil
	if s.tail != nil {
		s.tail.next = in
	} else {
		s.head = in
	}
	s.tail = in

	n := 0
	for i, id := range in.TupleIDs {
		if !in.Rule.CEs[i].Negated && id != 0 {
			n++
		}
	}
	sup := &support{in: in, rule: in.Rule}
	sup.links = sup.inline[:0]
	if n > len(sup.inline) {
		sup.links = make([]tupleLink, 0, n)
	}
	for i, id := range in.TupleIDs {
		ce := in.Rule.CEs[i]
		if ce.Negated || id == 0 {
			continue
		}
		sup.links = append(sup.links, tupleLink{sup: sup, id: id, class: int32(ce.ClassID), ce: int32(i)})
	}
	for i := range sup.links {
		s.byTuple.link(&sup.links[i])
	}
	in.sup = sup
}

// removeLocked takes a live instantiation off the agenda and out of
// byTuple. Caller holds mu.
func (s *Set) removeLocked(in *Instantiation) {
	sup := in.sup
	delete(s.items, in.Key())
	if in.prev != nil {
		in.prev.next = in.next
	} else {
		s.head = in.next
	}
	if in.next != nil {
		in.next.prev = in.prev
	} else {
		s.tail = in.prev
	}
	in.prev, in.next = nil, nil
	for i := range sup.links {
		s.byTuple.unlink(&sup.links[i])
	}
	sup.in = nil
	s.stats.Inc(metrics.Retractions)
	if s.tr.Enabled() {
		s.tr.Emit(trace.Event{
			Kind: trace.KindDeactivation, At: s.tr.Now(),
			Rule: in.Rule.Name, CE: -1, ID: in.Seq, Extra: in.KeyString(),
		})
	}
	if s.observer != nil {
		s.observer(false, in)
	}
}

// Remove deletes the instantiation with the given key, reporting whether
// it was present.
func (s *Set) Remove(key Key) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	in := s.items[key]
	if in == nil {
		return false
	}
	s.removeLocked(in)
	return true
}

// resolve names a tuple of the named class; ok is false when the set's
// rules.Set declares no such class.
func (s *Set) resolve(class string, id relation.TupleID) (tupleRef, bool) {
	cid, ok := s.rules.ClassID(class)
	return tupleRef{class: int32(cid), id: id}, ok
}

// RemoveByTuple retracts every instantiation supported by the given
// working-memory tuple when the tuple is deleted, and returns the
// retracted instantiations in Seq order.
func (s *Set) RemoveByTuple(class string, id relation.TupleID) []*Instantiation {
	ref, ok := s.resolve(class, id)
	if !ok {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	head := s.byTuple[ref]
	if head == nil {
		return nil
	}
	var out []*Instantiation
	for l := head; ; {
		if in := l.sup.in; len(out) == 0 || out[len(out)-1] != in {
			out = append(out, in)
		}
		if l = l.next; l == head {
			break
		}
	}
	for _, in := range out {
		s.removeLocked(in)
	}
	return out
}

// RemoveWhere retracts every instantiation for which pred returns true
// and returns the retracted instantiations in Seq order.
func (s *Set) RemoveWhere(pred func(*Instantiation) bool) []*Instantiation {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*Instantiation
	for in := s.head; in != nil; in = in.next {
		if pred(in) {
			out = append(out, in)
		}
	}
	for _, in := range out {
		s.removeLocked(in)
	}
	return out
}

// RemoveBlocked retracts every instantiation of ce's rule that one of the
// new tuples in entries blocks through the negated condition element ce:
// the tuple satisfies ce under the instantiation's bindings. It returns
// the retracted instantiations in Seq order.
func (s *Set) RemoveBlocked(ce *rules.CE, entries []relation.DeltaEntry) []*Instantiation {
	var b rules.Bindings
	return s.RemoveWhere(func(in *Instantiation) bool {
		if in.Rule != ce.Rule {
			return false
		}
		b = in.Rule.Fill(b, in.Tuples)
		for _, e := range entries {
			if _, blocked := ce.MatchWith(e.Tuple, b); blocked {
				return true
			}
		}
		return false
	})
}

// Contains reports whether the keyed instantiation is present.
func (s *Set) Contains(key Key) bool {
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

// Items returns the live instantiations in Seq order.
func (s *Set) Items() []*Instantiation {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Instantiation, 0, len(s.items))
	for in := s.head; in != nil; in = in.next {
		out = append(out, in)
	}
	return out
}

// Keys returns the rendered keys of the live instantiations, sorted; the
// primary tool of the cross-matcher agreement tests.
func (s *Set) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.items))
	for in := s.head; in != nil; in = in.next {
		out = append(out, in.KeyString())
	}
	sort.Strings(out)
	return out
}

// MarkFired records that an instantiation has fired, so refraction will
// keep it from being selected again even if re-derived — for instance
// after a negated condition element blocks and later unblocks it. The
// mark lasts until ForgetTuple reports one of the supporting tuples
// deleted; a key with no live instantiation is marked for good.
func (s *Set) MarkFired(key Key) {
	s.mu.Lock()
	defer s.mu.Unlock()
	in := s.items[key]
	if in != nil {
		s.removeLocked(in)
	}
	if _, marked := s.fired[key]; marked {
		return
	}
	if in == nil {
		s.fired[key] = nil
		return
	}
	sup := in.sup
	for i := range sup.links {
		s.firedBy.link(&sup.links[i])
	}
	s.fired[key] = sup
}

// Scratch returns an empty conflict set over s's rules that carries s's
// refraction marks, each for good: the set a from-scratch twin of s's
// matcher maintains, so its eligible instantiations are comparable with
// s's. It counts nothing.
func (s *Set) Scratch() *Set {
	out := NewSet(s.rules, nil)
	s.mu.Lock()
	defer s.mu.Unlock()
	for key := range s.fired {
		out.fired[key] = nil
	}
	return out
}

// HasFired reports whether the keyed instantiation already fired.
func (s *Set) HasFired(key Key) bool {
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
	ref, ok := s.resolve(class, id)
	if !ok {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for head := s.firedBy[ref]; head != nil; head = s.firedBy[ref] {
		sup := head.sup
		for i := range sup.links {
			s.firedBy.unlink(&sup.links[i])
		}
		key := sup.key()
		delete(s.fired, key)
		if in := s.items[key]; in != nil {
			in.refracted = false
		}
	}
}

// Select picks the next instantiation to fire under the given strategy,
// skipping fired ones. It returns nil when no eligible instantiation
// exists (the production system halts, §2.1). FIFO takes the first
// eligible instantiation off the agenda; any other strategy is handed
// every eligible one, in Seq order, in a reused buffer.
func (s *Set) Select(strategy Strategy) *Instantiation {
	s.mu.Lock()
	if _, fifo := strategy.(FIFO); fifo {
		defer s.mu.Unlock()
		for in := s.head; in != nil; in = in.next {
			if !in.refracted {
				return in
			}
		}
		return nil
	}
	buf, _ := s.cands.Get().(*[]*Instantiation)
	if buf == nil {
		buf = new([]*Instantiation)
	}
	cands := (*buf)[:0]
	for in := s.head; in != nil; in = in.next {
		if !in.refracted {
			cands = append(cands, in)
		}
	}
	s.mu.Unlock()
	var pick *Instantiation
	if len(cands) > 0 {
		pick = strategy.Select(cands)
	}
	clear(cands) // a pooled buffer must not keep retracted instantiations alive
	*buf = cands[:0]
	s.cands.Put(buf)
	return pick
}

// SelectAll returns every eligible (unfired) instantiation in Seq order:
// a §5.2 round's batch.
func (s *Set) SelectAll() []*Instantiation {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Instantiation, 0, len(s.items))
	for in := s.head; in != nil; in = in.next {
		if !in.refracted {
			out = append(out, in)
		}
	}
	return out
}

// Reset clears instantiations and refraction state.
func (s *Set) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.items = make(map[Key]*Instantiation)
	s.head, s.tail = nil, nil
	s.byTuple = make(tupleIndex)
	s.fired = make(map[Key]*support)
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
