package relation

import (
	"slices"
	"sort"

	"prodsys/internal/value"
)

// attrIndex is one secondary index over a single attribute position of
// the row store. Its hash side answers equality probes: three typed
// maps, one per kind of Key()-normalized value (so Int/Float and
// Str/Sym collapse the way value.Equal does), give each distinct key a
// slot in buckets, the idList of the IDs carrying it. Emptied slots are
// reused with their arrays, so in steady state a key costs no
// allocation of its own. When ordered, sorted
// key lists point at the same buckets and answer range probes; they
// change only when a key appears or disappears, and a key that appears
// inside the range of existing keys memmoves its list, so an attribute
// only ever equality-probed keeps the hash side alone. Nil and NaN
// values are not indexed: OPS5 equality and range comparisons admit
// neither, so such a tuple can never be an index hit (probing for one
// correctly yields nothing, matching the scan path).
type attrIndex struct {
	ints    map[int64]int32
	floats  map[float64]int32
	strs    map[string]int32
	buckets []idList
	free    []int32 // slots of emptied buckets
	ordered bool
	num     ordList // numeric keys, ascending by numeric value
	txt     ordList // textual keys, ascending by string
}

// ordList is an ordered side's sorted key list. A key whose bucket
// empties leaves a tombstone entry, which a reappearing key revives;
// the list drops its tombstones once half its entries are dead.
type ordList struct {
	entries []ordEntry
	ndead   int
}

// ordEntry is one distinct key and the slot of its bucket, or -1 for a
// tombstone.
type ordEntry struct {
	key  value.V
	slot int32
}

func newAttrIndex() *attrIndex {
	return &attrIndex{
		ints:   make(map[int64]int32),
		floats: make(map[float64]int32),
		strs:   make(map[string]int32),
	}
}

// slot returns the bucket slot of the normalized, non-nil key k.
func (ix *attrIndex) slot(k value.V) (int32, bool) {
	var s int32
	var ok bool
	switch k.Kind() {
	case value.Int:
		s, ok = ix.ints[k.AsInt()]
	case value.Float:
		s, ok = ix.floats[k.AsFloat()]
	default:
		s, ok = ix.strs[k.AsString()]
	}
	return s, ok
}

// setSlot maps the normalized key k to slot s, or unmaps it when s < 0.
func (ix *attrIndex) setSlot(k value.V, s int32) {
	switch k.Kind() {
	case value.Int:
		setOrDelete(ix.ints, k.AsInt(), s)
	case value.Float:
		setOrDelete(ix.floats, k.AsFloat(), s)
	default:
		setOrDelete(ix.strs, k.AsString(), s)
	}
}

func setOrDelete[K comparable](m map[K]int32, k K, s int32) {
	if s < 0 {
		delete(m, k)
	} else {
		m[k] = s
	}
}

// sorted returns the ordered side's key list for the normalized key k.
func (ix *attrIndex) sorted(k value.V) *ordList {
	if k.IsNumeric() {
		return &ix.num
	}
	return &ix.txt
}

// order adds the ordered side to a hash-only index.
func (ix *attrIndex) order() {
	if ix.ordered {
		return
	}
	ix.ordered = true
	for k, s := range ix.ints {
		ix.num.entries = append(ix.num.entries, ordEntry{value.OfInt(k), s})
	}
	for k, s := range ix.floats {
		ix.num.entries = append(ix.num.entries, ordEntry{value.OfFloat(k), s})
	}
	for k, s := range ix.strs {
		ix.txt.entries = append(ix.txt.entries, ordEntry{value.OfString(k), s})
	}
	byKey := func(a, b ordEntry) int {
		cmp, _ := value.Compare(a.key, b.key)
		return cmp
	}
	slices.SortFunc(ix.num.entries, byKey)
	slices.SortFunc(ix.txt.entries, byKey)
}

// unindexed reports whether v is a value attrIndex leaves out.
func unindexed(v value.V) bool { return v.IsNil() || v.IsNaN() }

func (ix *attrIndex) add(v value.V, id TupleID) {
	if unindexed(v) {
		return
	}
	k := v.Key()
	s, ok := ix.slot(k)
	if !ok {
		if n := len(ix.free); n > 0 {
			s, ix.free = ix.free[n-1], ix.free[:n-1]
		} else {
			s = int32(len(ix.buckets))
			ix.buckets = append(ix.buckets, idList{})
		}
		ix.setSlot(k, s)
		if ix.ordered {
			ix.sorted(k).put(k, s)
		}
	}
	ix.buckets[s].add(id)
}

func (ix *attrIndex) remove(v value.V, id TupleID) {
	if unindexed(v) {
		return
	}
	k := v.Key()
	s, ok := ix.slot(k)
	if !ok {
		return
	}
	b := &ix.buckets[s]
	b.remove(id)
	if b.Len() > 0 {
		return
	}
	ix.setSlot(k, -1)
	ix.free = append(ix.free, s)
	if ix.ordered {
		ix.sorted(k).drop(k)
	}
}

// lookupIDs returns the IDs of an equality probe in ascending order;
// nil and NaN probes hit nothing by construction.
func (ix *attrIndex) lookupIDs(v value.V) []TupleID {
	if unindexed(v) {
		return nil
	}
	s, ok := ix.slot(v.Key())
	if !ok {
		return nil
	}
	b := &ix.buckets[s]
	return b.appendLive(make([]TupleID, 0, b.Len()))
}

// distinct returns the number of distinct live key values.
func (ix *attrIndex) distinct() int { return len(ix.ints) + len(ix.floats) + len(ix.strs) }

// rangeIDs collects the IDs of tuples whose key lies within b, in
// ascending ID order. The bound values pick the category list; a range
// never spans categories (value.Compare orders only like categories).
func (ix *attrIndex) rangeIDs(b Bounds) []TupleID {
	bound := b.Lo
	if bound.IsNil() {
		bound = b.Hi
	}
	if bound.IsNil() || b.Lo.IsNaN() || b.Hi.IsNaN() {
		return nil // a NaN bound admits nothing
	}
	if !b.Lo.IsNil() && !b.Hi.IsNil() {
		if _, ok := value.Compare(b.Lo, b.Hi); !ok {
			return nil // mixed-category bounds: nothing satisfies both
		}
	}
	list := ix.sorted(bound).entries
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
		if e.slot >= 0 {
			n += ix.buckets[e.slot].Len()
		}
	}
	out := make([]TupleID, 0, n)
	for _, e := range list[lo:hi] {
		if e.slot >= 0 {
			out = ix.buckets[e.slot].appendLive(out)
		}
	}
	slices.Sort(out)
	return out
}

// search locates key k (Key()-normalized) in the list, returning its
// entry's position, or the insertion point, and whether an entry, live
// or tombstone, exists.
func (l *ordList) search(k value.V) (int, bool) {
	list := l.entries
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

// put records that key k now has a bucket, in slot s.
func (l *ordList) put(k value.V, s int32) {
	i, found := l.search(k)
	if !found {
		l.entries = slices.Insert(l.entries, i, ordEntry{key: k, slot: s})
		return
	}
	if l.entries[i].slot < 0 {
		l.ndead--
	}
	l.entries[i].slot = s
}

// drop records that key k's bucket emptied.
func (l *ordList) drop(k value.V) {
	i, found := l.search(k)
	if !found || l.entries[i].slot < 0 {
		return
	}
	l.entries[i].slot = -1
	l.ndead++
	if 2*l.ndead >= len(l.entries) {
		l.entries = slices.DeleteFunc(l.entries, func(e ordEntry) bool { return e.slot < 0 })
		l.ndead = 0
	}
}
