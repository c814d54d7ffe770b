package relation

import (
	"sort"

	"prodsys/internal/value"
)

// attrIndex is one secondary index over a single attribute position,
// maintained by both storage backends. It pairs a hash map for O(1)
// equality probes with, when ordered, sorted key lists for range probes —
// the "sorted in addition to hash" access paths of ROADMAP item 3. Every
// change memmoves the sorted lists, so an attribute only ever
// equality-probed keeps the hash side alone. Keys are
// normalized with value.V.Key(), so Int/Float and Str/Sym collapse the
// same way value.Equal does. Nil values are not indexed: OPS5 equality
// and range comparisons never admit nil, so a nil-valued tuple can
// never be an index hit (probing for nil correctly yields nothing,
// matching the scan path).
type attrIndex struct {
	hash    map[value.V]map[TupleID]struct{}
	ordered bool
	num     []ordEntry // numeric keys, ascending by numeric value
	txt     []ordEntry // textual keys, ascending by string
}

// ordEntry groups the IDs carrying one distinct key value.
type ordEntry struct {
	key value.V
	ids []TupleID // ascending
}

func newAttrIndex(ordered bool) *attrIndex {
	return &attrIndex{hash: make(map[value.V]map[TupleID]struct{}), ordered: ordered}
}

// order adds the ordered side to a hash-only index.
func (ix *attrIndex) order() {
	if ix.ordered {
		return
	}
	ix.ordered = true
	for k, set := range ix.hash {
		for id := range set {
			ix.addOrdered(k, id)
		}
	}
}

func (ix *attrIndex) addOrdered(k value.V, id TupleID) {
	if k.IsNumeric() {
		ix.num = ordInsert(ix.num, k, id)
	} else {
		ix.txt = ordInsert(ix.txt, k, id)
	}
}

func (ix *attrIndex) add(v value.V, id TupleID) {
	if v.IsNil() {
		return
	}
	k := v.Key()
	set := ix.hash[k]
	if set == nil {
		set = make(map[TupleID]struct{})
		ix.hash[k] = set
	}
	set[id] = struct{}{}
	if ix.ordered {
		ix.addOrdered(k, id)
	}
}

func (ix *attrIndex) remove(v value.V, id TupleID) {
	if v.IsNil() {
		return
	}
	k := v.Key()
	if set := ix.hash[k]; set != nil {
		delete(set, id)
		if len(set) == 0 {
			delete(ix.hash, k)
		}
	}
	if !ix.ordered {
		return
	}
	if k.IsNumeric() {
		ix.num = ordRemove(ix.num, k, id)
	} else {
		ix.txt = ordRemove(ix.txt, k, id)
	}
}

// lookup returns the ID set for an equality probe; nil probes hit
// nothing by construction.
func (ix *attrIndex) lookup(v value.V) map[TupleID]struct{} {
	if v.IsNil() {
		return nil
	}
	return ix.hash[v.Key()]
}

// lookupIDs materializes an equality probe in ascending ID order.
func (ix *attrIndex) lookupIDs(v value.V) []TupleID {
	set := ix.lookup(v)
	if len(set) == 0 {
		return nil
	}
	out := make([]TupleID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// distinct returns the number of distinct live key values.
func (ix *attrIndex) distinct() int { return len(ix.hash) }

func (ix *attrIndex) clear() {
	ix.hash = make(map[value.V]map[TupleID]struct{})
	ix.num, ix.txt = nil, nil
}

// rangeIDs collects the IDs of tuples whose key lies within b, in
// ascending ID order. The bound values pick the category list; a range
// never spans categories (value.Compare orders only like categories).
func (ix *attrIndex) rangeIDs(b Bounds) []TupleID {
	bound := b.Lo
	if bound.IsNil() {
		bound = b.Hi
	}
	if bound.IsNil() {
		return nil
	}
	if !b.Lo.IsNil() && !b.Hi.IsNil() {
		if _, ok := value.Compare(b.Lo, b.Hi); !ok {
			return nil // mixed-category bounds: nothing satisfies both
		}
	}
	list := ix.txt
	if bound.IsNumeric() {
		list = ix.num
	}
	lo := 0
	if !b.Lo.IsNil() {
		lo = sort.Search(len(list), func(i int) bool {
			cmp, _ := value.Compare(list[i].key, b.Lo)
			if b.LoIncl {
				return cmp >= 0
			}
			return cmp > 0
		})
	}
	hi := len(list)
	if !b.Hi.IsNil() {
		hi = sort.Search(len(list), func(i int) bool {
			cmp, _ := value.Compare(list[i].key, b.Hi)
			if b.HiIncl {
				return cmp > 0
			}
			return cmp >= 0
		})
	}
	if lo >= hi {
		return nil
	}
	n := 0
	for _, e := range list[lo:hi] {
		n += len(e.ids)
	}
	out := make([]TupleID, 0, n)
	for _, e := range list[lo:hi] {
		out = append(out, e.ids...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ordFind locates the entry for key k (already Key()-normalized) in a
// sorted entry list, returning the insertion point and whether the
// entry exists.
func ordFind(list []ordEntry, k value.V) (int, bool) {
	i := sort.Search(len(list), func(i int) bool {
		cmp, _ := value.Compare(list[i].key, k)
		return cmp >= 0
	})
	if i < len(list) {
		if cmp, ok := value.Compare(list[i].key, k); ok && cmp == 0 {
			return i, true
		}
	}
	return i, false
}

// ordInsert adds (k, id) to the sorted entry list.
func ordInsert(list []ordEntry, k value.V, id TupleID) []ordEntry {
	i, found := ordFind(list, k)
	if found {
		list[i].ids = idInsert(list[i].ids, id)
		return list
	}
	list = append(list, ordEntry{})
	copy(list[i+1:], list[i:])
	list[i] = ordEntry{key: k, ids: []TupleID{id}}
	return list
}

// ordRemove drops (k, id) from the sorted entry list, deleting the
// entry when its ID list empties.
func ordRemove(list []ordEntry, k value.V, id TupleID) []ordEntry {
	i, found := ordFind(list, k)
	if !found {
		return list
	}
	list[i].ids = idRemove(list[i].ids, id)
	if len(list[i].ids) == 0 {
		list = append(list[:i], list[i+1:]...)
	}
	return list
}

// idInsert adds id to a sorted ID slice. IDs are assigned in increasing
// order, so the common case is a plain append.
func idInsert(ids []TupleID, id TupleID) []TupleID {
	if n := len(ids); n == 0 || ids[n-1] < id {
		return append(ids, id)
	}
	i := sort.Search(len(ids), func(i int) bool { return ids[i] >= id })
	if i < len(ids) && ids[i] == id {
		return ids
	}
	ids = append(ids, 0)
	copy(ids[i+1:], ids[i:])
	ids[i] = id
	return ids
}

// idRemove drops id from a sorted ID slice.
func idRemove(ids []TupleID, id TupleID) []TupleID {
	i := sort.Search(len(ids), func(i int) bool { return ids[i] >= id })
	if i < len(ids) && ids[i] == id {
		return append(ids[:i], ids[i+1:]...)
	}
	return ids
}
