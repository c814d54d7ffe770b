package relation

import "prodsys/internal/value"

// rowStore holds a relation's tuples: a TupleID-keyed map plus an
// idList of the live IDs, the scan order, with optional per-attribute
// secondary indexes (hash for equality, ordered for ranges). Point
// access is O(1) and so, amortized, is a change, except that an ordered
// index memmoves its key list when a new key lands inside its range;
// scans follow the ID list, so iteration order is ascending TupleID
// (never Go map order). A rowStore is NOT safe for concurrent use — Relation
// serializes access under its lock and layers cloning, ID assignment,
// and I/O accounting on top. Tuples handed to Insert are owned by the
// store; tuples returned by Get must not be mutated.
type rowStore struct {
	tuples  map[TupleID]Tuple
	order   idList
	indexes []*attrIndex // by attribute position; nil where none
}

func newRowStore() *rowStore {
	return &rowStore{tuples: make(map[TupleID]Tuple), order: idList{lent: true}}
}

func (s *rowStore) Len() int { return len(s.tuples) }

func (s *rowStore) Get(id TupleID) (Tuple, bool) {
	t, ok := s.tuples[id]
	return t, ok
}

// Insert stores t under id. The caller guarantees id is not live and t
// matches the arity; ids may arrive out of order (restore, recovery).
func (s *rowStore) Insert(id TupleID, t Tuple) {
	s.tuples[id] = t
	s.order.add(id)
	for pos, ix := range s.indexes {
		if ix != nil {
			ix.add(t[pos], id)
		}
	}
}

func (s *rowStore) Delete(id TupleID) (Tuple, bool) {
	t, ok := s.tuples[id]
	if !ok {
		return nil, false
	}
	delete(s.tuples, id)
	s.order.remove(id)
	for pos, ix := range s.indexes {
		if ix != nil {
			ix.remove(t[pos], id)
		}
	}
	return t, true
}

// Order lends the scan order: every live ID, ascending, among
// tombstones. The store never writes the slice below its length, so a
// caller may walk it after releasing the lock, asking Get which entries
// are (still) live.
func (s *rowStore) Order() []TupleID { return s.order.ids }

// index returns the index on pos, or nil.
func (s *rowStore) index(pos int) *attrIndex {
	if pos < 0 || pos >= len(s.indexes) {
		return nil
	}
	return s.indexes[pos]
}

// SelectEq returns the IDs (ascending) of tuples whose attribute at pos
// equals v under OPS5 equality. indexed reports whether an index probe
// served the call; otherwise the store scanned.
func (s *rowStore) SelectEq(pos int, v value.V) ([]TupleID, bool) {
	if ix := s.index(pos); ix != nil {
		return ix.lookupIDs(v), true
	}
	return s.scan(func(t Tuple) bool { return value.Equal(t[pos], v) }), false
}

// SelectRange returns the IDs (ascending) of tuples whose attribute at
// pos lies within b. indexed reports an ordered-index probe; a hash-only
// index cannot serve one, so the store scans.
func (s *rowStore) SelectRange(pos int, b Bounds) ([]TupleID, bool) {
	if ix := s.index(pos); ix != nil && ix.ordered {
		return ix.rangeIDs(b), true
	}
	return s.scan(func(t Tuple) bool { return b.Contains(t[pos]) }), false
}

// scan returns the IDs (ascending) of the live tuples satisfying keep.
func (s *rowStore) scan(keep func(Tuple) bool) []TupleID {
	var out []TupleID
	for i, id := range s.order.ids {
		if !s.order.isDead(i) && keep(s.tuples[id]) {
			out = append(out, id)
		}
	}
	return out
}

// CreateIndex builds (idempotently) a hash index on pos and, when
// ordered, its ordered side (an existing hash-only index gains it).
func (s *rowStore) CreateIndex(pos int, ordered bool) {
	for len(s.indexes) <= pos {
		s.indexes = append(s.indexes, nil)
	}
	ix := s.indexes[pos]
	if ix == nil {
		ix = newAttrIndex()
		for i, id := range s.order.ids {
			if !s.order.isDead(i) {
				ix.add(s.tuples[id][pos], id)
			}
		}
		s.indexes[pos] = ix
	}
	if ordered {
		ix.order()
	}
}

func (s *rowStore) HasIndex(pos int) (indexed, ordered bool) {
	ix := s.index(pos)
	return ix != nil, ix != nil && ix.ordered
}

func (s *rowStore) Stats() StoreStats {
	st := StoreStats{Tuples: len(s.tuples)}
	for pos, ix := range s.indexes {
		if ix != nil {
			st.Indexes = append(st.Indexes, IndexStat{Pos: pos, Distinct: ix.distinct()})
		}
	}
	return st
}
