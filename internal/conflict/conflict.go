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
	// links; the next live instantiation whose key hashes alike; one
	// tupleLink per supporting tuple, threaded into byTuple while the
	// instantiation is live and into firedBy while it is a refraction
	// mark; and whether the key was already fired when the instantiation
	// arrived (a re-derivation that refraction keeps from being
	// selected).
	prev, next *Instantiation
	hnext      *Instantiation
	links      []tupleLink
	refracted  bool
}

// NewInstantiation returns an instantiation of r over copies of ids and
// tuples — the slices a join lends its emit callback — made, with room
// for its supporting-tuple links, in one allocation for rules of up to
// eight condition elements.
func NewInstantiation(r *rules.Rule, ids []relation.TupleID, tuples []relation.Tuple) *Instantiation {
	n := len(ids)
	var in *Instantiation
	var idBuf []relation.TupleID
	var tupBuf []relation.Tuple
	var links []tupleLink
	switch {
	case n <= 2:
		x := new(struct {
			in     Instantiation
			ids    [2]relation.TupleID
			tuples [2]relation.Tuple
			links  [2]tupleLink
		})
		in, idBuf, tupBuf, links = &x.in, x.ids[:n], x.tuples[:n], x.links[:0]
	case n <= 4:
		x := new(struct {
			in     Instantiation
			ids    [4]relation.TupleID
			tuples [4]relation.Tuple
			links  [4]tupleLink
		})
		in, idBuf, tupBuf, links = &x.in, x.ids[:n], x.tuples[:n], x.links[:0]
	case n <= 8:
		x := new(struct {
			in     Instantiation
			ids    [8]relation.TupleID
			tuples [8]relation.Tuple
			links  [8]tupleLink
		})
		in, idBuf, tupBuf, links = &x.in, x.ids[:n], x.tuples[:n], x.links[:0]
	default:
		in, idBuf, tupBuf = new(Instantiation), make([]relation.TupleID, n), make([]relation.Tuple, n)
	}
	copy(idBuf, ids)
	copy(tupBuf, tuples)
	in.Rule, in.TupleIDs, in.Tuples, in.links = r, idBuf, tupBuf, links
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
func (in *Instantiation) Key() Key { return MakeKey(in.Rule.Index, in.TupleIDs) }

// MakeKey returns the key of the instantiation of the rule at index rule
// over ids, one per condition element and zero at negated ones: what Key
// returns, for a caller that holds only the IDs. It does not retain ids.
func MakeKey(rule int, ids []relation.TupleID) Key {
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

// hash mixes the key into the 64 bits a Set's items map is keyed by.
func (k Key) hash() uint64 {
	const m = 0x9e3779b97f4a7c15
	h := uint64(uint32(k.rule)) * m
	for i := 0; i < inlineIDs; i += 2 {
		h = (h ^ (uint64(k.ids[i]) | uint64(k.ids[i+1])<<32)) * m
		h ^= h >> 32
	}
	for i := 0; i < len(k.spill); i++ {
		h = (h ^ uint64(k.spill[i])) * m
		h ^= h >> 32
	}
	return h
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
				return MakeKey(r.Index, ids), true
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

// tupleLink is one node of a per-tuple list, standing for one supporting
// tuple of in. It lives in in.links, which NewInstantiation allocates
// together with in, so it names its tuple through in rather than holding
// it. Each list is circular and doubly linked, and its head — the link a
// tupleIndex maps the tuple to — carries the head flag, so unlinking any
// other link only moves pointers. Links are appended as instantiations
// arrive, so a byTuple list is in Seq order, and the two links of an
// instantiation that uses one tuple twice are adjacent.
type tupleLink struct {
	in         *Instantiation
	prev, next *tupleLink // nil while not in a list
	ce         int32      // the condition element the tuple fills
	head       bool
}

// tuple names the linked tuple: its dense class ID in the rule set and
// its ID within the class.
func (l *tupleLink) tuple() (class int, id relation.TupleID) {
	return l.in.Rule.CEs[l.ce].ClassID, l.in.TupleIDs[l.ce]
}

// tupleIndex maps a tuple to the head of its list of links: one
// integer-keyed map per class, indexed by class ID.
type tupleIndex []map[relation.TupleID]*tupleLink

func newTupleIndex(classes int) tupleIndex {
	ix := make(tupleIndex, classes)
	for i := range ix {
		ix[i] = make(map[relation.TupleID]*tupleLink)
	}
	return ix
}

func (ix tupleIndex) link(l *tupleLink) {
	class, id := l.tuple()
	head := ix[class][id]
	if head == nil {
		l.prev, l.next, l.head = l, l, true
		ix[class][id] = l
		return
	}
	tail := head.prev
	l.prev, l.next = tail, head
	tail.next, head.prev = l, l
}

// unlink takes l out of its list. A link whose list detach already took
// out of the index is left alone.
func (ix tupleIndex) unlink(l *tupleLink) {
	switch {
	case l.next == nil:
		return
	case l.next == l:
		class, id := l.tuple()
		delete(ix[class], id)
	default:
		l.prev.next, l.next.prev = l.next, l.prev
		if l.head {
			class, id := l.tuple()
			l.next.head = true
			ix[class][id] = l.next
		}
	}
	l.prev, l.next, l.head = nil, nil, false
}

// detach takes the tuple's whole list out of the index with one map
// operation and appends the instantiations on it to dst, in list order
// and each once. The detached links are out of every list; their
// instantiations' other links are not.
func (ix tupleIndex) detach(dst []*Instantiation, class int, id relation.TupleID) []*Instantiation {
	head := ix[class][id]
	if head == nil {
		return dst
	}
	delete(ix[class], id)
	start := len(dst)
	for l := head; ; {
		next := l.next
		if len(dst) == start || dst[len(dst)-1] != l.in {
			dst = append(dst, l.in)
		}
		l.prev, l.next, l.head = nil, nil, false
		if next == head {
			return dst
		}
		l = next
	}
}

// Set is the conflict set. All methods are safe for concurrent use.
type Set struct {
	mu sync.Mutex
	// rules resolves class names to the dense class IDs tuples are
	// indexed by.
	rules *rules.Set
	// items finds a live instantiation by its key's hash; the rare keys
	// that share a hash chain through hnext. live counts them.
	items map[uint64]*Instantiation
	live  int
	// head and tail bound the agenda: every live instantiation, in Seq
	// order.
	head, tail *Instantiation
	byTuple    tupleIndex
	// fired holds the refraction marks. A mark made while its
	// instantiation was live is that instantiation, its links moved into
	// firedBy, so ForgetTuple can drop the marks a deleted tuple
	// supported: tuple IDs are never reused, so such a key can never be
	// derived again. A nil mark marks a key for good.
	fired    map[Key]*Instantiation
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
		items:   make(map[uint64]*Instantiation),
		byTuple: newTupleIndex(len(rs.Classes)),
		fired:   make(map[Key]*Instantiation),
		firedBy: newTupleIndex(len(rs.Classes)),
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
		h := key.hash()
		chain := s.items[h]
		if find(chain, key) != nil {
			continue
		}
		mark, refracted := s.fired[key]
		if mark == in {
			// in's links hold its own refraction mark: hand them to a
			// copy, and in gets fresh ones.
			mark = &Instantiation{Rule: in.Rule, TupleIDs: in.TupleIDs, Tuples: in.Tuples, Seq: in.Seq, links: in.links}
			for i := range mark.links {
				mark.links[i].in = mark
			}
			s.fired[key], in.links = mark, nil
		}
		s.seq++
		in.Seq = s.seq
		in.hnext, s.items[h] = chain, in
		s.live++
		s.linkLocked(in)
		in.refracted = refracted
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

// linkLocked appends in to the agenda and threads one link per
// supporting tuple into byTuple, in the room NewInstantiation left.
// Caller holds mu.
func (s *Set) linkLocked(in *Instantiation) {
	in.prev, in.next = s.tail, nil
	if s.tail != nil {
		s.tail.next = in
	} else {
		s.head = in
	}
	s.tail = in

	if cap(in.links) < len(in.TupleIDs) {
		in.links = make([]tupleLink, 0, len(in.TupleIDs))
	}
	in.links = in.links[:0]
	for i, id := range in.TupleIDs {
		if !in.Rule.CEs[i].Negated && id != 0 {
			in.links = append(in.links, tupleLink{in: in, ce: int32(i)})
		}
	}
	for i := range in.links {
		s.byTuple.link(&in.links[i])
	}
}

// removeLocked takes a live instantiation off the agenda and out of
// byTuple. Caller holds mu.
func (s *Set) removeLocked(in *Instantiation) {
	h := in.Key().hash()
	if c := s.items[h]; c == in {
		if in.hnext == nil {
			delete(s.items, h)
		} else {
			s.items[h] = in.hnext
		}
	} else {
		for c.hnext != in {
			c = c.hnext
		}
		c.hnext = in.hnext
	}
	in.hnext = nil
	s.live--
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
	for i := range in.links {
		s.byTuple.unlink(&in.links[i])
	}
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

// find returns the instantiation keyed key on the items chain from c.
func find(c *Instantiation, key Key) *Instantiation {
	for ; c != nil; c = c.hnext {
		if c.Key() == key {
			return c
		}
	}
	return nil
}

// get returns the live instantiation keyed key, or nil. Caller holds mu.
func (s *Set) get(key Key) *Instantiation { return find(s.items[key.hash()], key) }

// Remove deletes the instantiation with the given key, reporting whether
// it was present.
func (s *Set) Remove(key Key) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	in := s.get(key)
	if in == nil {
		return false
	}
	s.removeLocked(in)
	return true
}

// RemoveByTuple retracts every instantiation supported by the given
// working-memory tuple when the tuple is deleted, and appends the
// retracted instantiations to dst in Seq order. The tuple's own list
// leaves byTuple in one map operation.
func (s *Set) RemoveByTuple(dst []*Instantiation, class string, id relation.TupleID) []*Instantiation {
	cid, ok := s.rules.ClassID(class)
	if !ok {
		return dst
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	start := len(dst)
	dst = s.byTuple.detach(dst, cid, id)
	for _, in := range dst[start:] {
		s.removeLocked(in)
	}
	return dst
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
	return s.get(key) != nil
}

// Len returns the number of live instantiations.
func (s *Set) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.live
}

// Items returns the live instantiations in Seq order.
func (s *Set) Items() []*Instantiation {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Instantiation, 0, s.live)
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
	out := make([]string, 0, s.live)
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
	in := s.get(key)
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
	for i := range in.links {
		s.firedBy.link(&in.links[i])
	}
	s.fired[key] = in
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
	cid, ok := s.rules.ClassID(class)
	if !ok {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ix := s.firedBy[cid]
	for head := ix[id]; head != nil; head = ix[id] {
		mark := head.in
		for i := range mark.links {
			s.firedBy.unlink(&mark.links[i])
		}
		key := mark.Key()
		delete(s.fired, key)
		if in := s.get(key); in != nil {
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
	out := make([]*Instantiation, 0, s.live)
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
	s.items, s.live = make(map[uint64]*Instantiation), 0
	s.head, s.tail = nil, nil
	s.byTuple = newTupleIndex(len(s.rules.Classes))
	s.fired = make(map[Key]*Instantiation)
	s.firedBy = newTupleIndex(len(s.rules.Classes))
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
