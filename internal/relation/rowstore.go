package relation

import (
	"sort"

	"prodsys/internal/value"
)

// rowStore is the row-major backend: tuples in a TupleID-keyed map plus
// a sorted ID slice for ordered iteration. Point access is O(1); scans
// follow the ID slice so iteration order is ascending TupleID (never Go
// map order). This is the original Relation representation moved behind
// the Store interface and upgraded with ordered secondary indexes.
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

func (s *rowStore) Kind() StorageKind { return StorageRow }

func (s *rowStore) Len() int { return len(s.tuples) }

func (s *rowStore) Get(id TupleID) (Tuple, bool) {
	t, ok := s.tuples[id]
	return t, ok
}

func (s *rowStore) Insert(id TupleID, t Tuple) {
	s.tuples[id] = t
	s.ids = idInsert(s.ids, id)
	for pos, ix := range s.indexes {
		ix.add(t[pos], id)
	}
}

func (s *rowStore) InsertBatch(entries []DeltaEntry) {
	for _, e := range entries {
		s.Insert(e.ID, e.Tuple)
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

func (s *rowStore) IDs() []TupleID {
	return append([]TupleID(nil), s.ids...)
}

func (s *rowStore) Scan(fn func(id TupleID, t Tuple) bool) {
	for _, id := range s.ids {
		if !fn(id, s.tuples[id]) {
			return
		}
	}
}

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

func (s *rowStore) Clear() {
	s.tuples = make(map[TupleID]Tuple)
	s.ids = nil
	for _, ix := range s.indexes {
		ix.clear()
	}
}

func (s *rowStore) Stats() StoreStats {
	st := StoreStats{Backend: StorageRow, Tuples: len(s.tuples)}
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
