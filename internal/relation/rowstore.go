package relation

import (
	"sort"

	"prodsys/internal/value"
)

// rowStore holds a relation's tuples: a TupleID-keyed map plus a sorted
// ID slice for ordered iteration, with optional per-attribute secondary
// indexes (hash for equality, ordered for ranges). Point access is O(1);
// scans follow the ID slice so iteration order is ascending TupleID
// (never Go map order). A rowStore is NOT safe for concurrent use —
// Relation serializes access under its lock and layers cloning, ID
// assignment, and I/O accounting on top. Tuples handed to Insert are
// owned by the store; tuples returned by Get must not be mutated.
type rowStore struct {
	tuples  map[TupleID]Tuple
	ids     []TupleID // maintained sorted ascending
	indexes map[int]*attrIndex
}

func newRowStore() *rowStore {
	return &rowStore{
		tuples:  make(map[TupleID]Tuple),
		indexes: make(map[int]*attrIndex),
	}
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
	s.ids = idInsert(s.ids, id)
	for pos, ix := range s.indexes {
		ix.add(t[pos], id)
	}
}

func (s *rowStore) Delete(id TupleID) (Tuple, bool) {
	t, ok := s.tuples[id]
	if !ok {
		return nil, false
	}
	delete(s.tuples, id)
	s.ids = idRemove(s.ids, id)
	for pos, ix := range s.indexes {
		ix.remove(t[pos], id)
	}
	return t, true
}

// IDs returns a fresh slice of the live IDs in ascending order.
func (s *rowStore) IDs() []TupleID {
	return append([]TupleID(nil), s.ids...)
}

// SelectEq returns the IDs (ascending) of tuples whose attribute at pos
// equals v under OPS5 equality. indexed reports whether an index probe
// served the call; otherwise the store scanned.
func (s *rowStore) SelectEq(pos int, v value.V) ([]TupleID, bool) {
	if ix := s.indexes[pos]; ix != nil {
		return ix.lookupIDs(v), true
	}
	var out []TupleID
	for _, id := range s.ids {
		if value.Equal(s.tuples[id][pos], v) {
			out = append(out, id)
		}
	}
	return out, false
}

// SelectRange returns the IDs (ascending) of tuples whose attribute at
// pos lies within b. indexed reports an ordered-index probe; a hash-only
// index cannot serve one, so the store scans.
func (s *rowStore) SelectRange(pos int, b Bounds) ([]TupleID, bool) {
	if ix := s.indexes[pos]; ix != nil && ix.ordered {
		return ix.rangeIDs(b), true
	}
	var out []TupleID
	for _, id := range s.ids {
		if b.Contains(s.tuples[id][pos]) {
			out = append(out, id)
		}
	}
	return out, false
}

// CreateIndex builds (idempotently) a hash index on pos and, when
// ordered, its ordered side (an existing hash-only index gains it).
func (s *rowStore) CreateIndex(pos int, ordered bool) {
	ix := s.indexes[pos]
	if ix == nil {
		ix = newAttrIndex(false)
		for id, t := range s.tuples {
			ix.add(t[pos], id)
		}
		s.indexes[pos] = ix
	}
	if ordered {
		ix.order()
	}
}

func (s *rowStore) HasIndex(pos int) (indexed, ordered bool) {
	ix := s.indexes[pos]
	return ix != nil, ix != nil && ix.ordered
}

// Clear removes every tuple but keeps the indexes.
func (s *rowStore) Clear() {
	s.tuples = make(map[TupleID]Tuple)
	s.ids = nil
	for _, ix := range s.indexes {
		ix.clear()
	}
}

func (s *rowStore) Stats() StoreStats {
	st := StoreStats{Tuples: len(s.tuples)}
	positions := make([]int, 0, len(s.indexes))
	for pos := range s.indexes {
		positions = append(positions, pos)
	}
	sort.Ints(positions)
	for _, pos := range positions {
		st.Indexes = append(st.Indexes, IndexStat{Pos: pos, Distinct: s.indexes[pos].distinct()})
	}
	return st
}
