package relation

import (
	"sort"

	"prodsys/internal/value"
)

// colStore is the column-major backend: one value array per attribute,
// a parallel ascending ID array, and a tombstone bitmap. It is built
// for the set-oriented ApplyDelta path — a batch insert is one append
// per column, and an unindexed selection touches a single column
// instead of materializing whole tuples. Deletions tombstone in place;
// the arrays compact once tombstones dominate.
type colStore struct {
	arity   int
	ids     []TupleID   // ascending; includes tombstoned rows until compaction
	cols    [][]value.V // cols[pos][row]
	dead    []bool
	nDead   int
	indexes map[int]*attrIndex
}

// colCompactMin is the tombstone count below which compaction never
// runs; beyond it the store compacts when at least half the rows are
// dead, keeping amortized delete cost constant.
const colCompactMin = 64

func newColStore(arity int) *colStore {
	s := &colStore{arity: arity, indexes: make(map[int]*attrIndex)}
	s.cols = make([][]value.V, arity)
	return s
}

func (s *colStore) Kind() StorageKind { return StorageColumnar }

func (s *colStore) Len() int { return len(s.ids) - s.nDead }

// rowOf binary-searches the ID array; ok is false for unknown or
// tombstoned IDs.
func (s *colStore) rowOf(id TupleID) (int, bool) {
	i := sort.Search(len(s.ids), func(i int) bool { return s.ids[i] >= id })
	if i < len(s.ids) && s.ids[i] == id && !s.dead[i] {
		return i, true
	}
	return i, false
}

// tuple materializes row i.
func (s *colStore) tuple(i int) Tuple {
	t := make(Tuple, s.arity)
	for pos := range s.cols {
		t[pos] = s.cols[pos][i]
	}
	return t
}

func (s *colStore) Get(id TupleID) (Tuple, bool) {
	i, ok := s.rowOf(id)
	if !ok {
		return nil, false
	}
	return s.tuple(i), true
}

func (s *colStore) Insert(id TupleID, t Tuple) {
	if n := len(s.ids); n == 0 || s.ids[n-1] < id {
		// Common case: IDs arrive in increasing order — pure append.
		s.ids = append(s.ids, id)
		s.dead = append(s.dead, false)
		for pos := range s.cols {
			s.cols[pos] = append(s.cols[pos], t[pos])
		}
	} else {
		// Out-of-order ID (restore/recovery): positional insert. A
		// tombstoned row under the same ID is revived in place rather
		// than duplicated.
		i := sort.Search(len(s.ids), func(i int) bool { return s.ids[i] >= id })
		if i < len(s.ids) && s.ids[i] == id {
			for pos := range s.cols {
				s.cols[pos][i] = t[pos]
			}
			s.dead[i] = false
			s.nDead--
			for pos, ix := range s.indexes {
				ix.add(t[pos], id)
			}
			return
		}
		s.ids = append(s.ids, 0)
		copy(s.ids[i+1:], s.ids[i:])
		s.ids[i] = id
		s.dead = append(s.dead, false)
		copy(s.dead[i+1:], s.dead[i:])
		s.dead[i] = false
		for pos := range s.cols {
			s.cols[pos] = append(s.cols[pos], value.V{})
			copy(s.cols[pos][i+1:], s.cols[pos][i:])
			s.cols[pos][i] = t[pos]
		}
	}
	for pos, ix := range s.indexes {
		ix.add(t[pos], id)
	}
}

func (s *colStore) InsertBatch(entries []DeltaEntry) {
	// One growth decision per column for the whole batch.
	for pos := range s.cols {
		if cap(s.cols[pos])-len(s.cols[pos]) < len(entries) {
			grown := make([]value.V, len(s.cols[pos]), len(s.cols[pos])+len(entries))
			copy(grown, s.cols[pos])
			s.cols[pos] = grown
		}
	}
	for _, e := range entries {
		s.Insert(e.ID, e.Tuple)
	}
}

func (s *colStore) Delete(id TupleID) (Tuple, bool) {
	i, ok := s.rowOf(id)
	if !ok {
		return nil, false
	}
	t := s.tuple(i)
	s.dead[i] = true
	s.nDead++
	for pos, ix := range s.indexes {
		ix.remove(t[pos], id)
	}
	if s.nDead >= colCompactMin && s.nDead*2 >= len(s.ids) {
		s.compact()
	}
	return t, true
}

// compact rewrites the arrays without tombstoned rows. Indexes hold
// IDs, not row positions, so they are unaffected.
func (s *colStore) compact() {
	live := 0
	for i := range s.ids {
		if s.dead[i] {
			continue
		}
		s.ids[live] = s.ids[i]
		for pos := range s.cols {
			s.cols[pos][live] = s.cols[pos][i]
		}
		live++
	}
	s.ids = s.ids[:live]
	for pos := range s.cols {
		s.cols[pos] = s.cols[pos][:live]
	}
	s.dead = s.dead[:live]
	for i := range s.dead {
		s.dead[i] = false
	}
	s.nDead = 0
}

func (s *colStore) IDs() []TupleID {
	out := make([]TupleID, 0, s.Len())
	for i, id := range s.ids {
		if !s.dead[i] {
			out = append(out, id)
		}
	}
	return out
}

func (s *colStore) Scan(fn func(id TupleID, t Tuple) bool) {
	for i, id := range s.ids {
		if s.dead[i] {
			continue
		}
		if !fn(id, s.tuple(i)) {
			return
		}
	}
}

func (s *colStore) SelectEq(pos int, v value.V) ([]TupleID, bool) {
	if ix := s.indexes[pos]; ix != nil {
		return ix.lookupIDs(v), true
	}
	// Unindexed equality touches one column — the columnar advantage.
	col := s.cols[pos]
	var out []TupleID
	for i, id := range s.ids {
		if !s.dead[i] && value.Equal(col[i], v) {
			out = append(out, id)
		}
	}
	return out, false
}

func (s *colStore) SelectRange(pos int, b Bounds) ([]TupleID, bool) {
	if ix := s.indexes[pos]; ix != nil && ix.ordered {
		return ix.rangeIDs(b), true
	}
	col := s.cols[pos]
	var out []TupleID
	for i, id := range s.ids {
		if !s.dead[i] && b.Contains(col[i]) {
			out = append(out, id)
		}
	}
	return out, false
}

func (s *colStore) CreateIndex(pos int, ordered bool) {
	ix := s.indexes[pos]
	if ix == nil {
		ix = newAttrIndex(false)
		col := s.cols[pos]
		for i, id := range s.ids {
			if !s.dead[i] {
				ix.add(col[i], id)
			}
		}
		s.indexes[pos] = ix
	}
	if ordered {
		ix.order()
	}
}

func (s *colStore) HasIndex(pos int) (indexed, ordered bool) {
	ix := s.indexes[pos]
	return ix != nil, ix != nil && ix.ordered
}

func (s *colStore) Clear() {
	s.ids = nil
	s.dead = nil
	s.nDead = 0
	for pos := range s.cols {
		s.cols[pos] = nil
	}
	for _, ix := range s.indexes {
		ix.clear()
	}
}

func (s *colStore) Stats() StoreStats {
	st := StoreStats{Backend: StorageColumnar, Tuples: s.Len()}
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
