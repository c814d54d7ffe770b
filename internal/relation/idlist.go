package relation

import (
	"slices"
	"sort"
)

// idList is an ascending list of TupleIDs that changes in amortized
// O(1): the row store's scan order and every hash bucket are one each.
// An append is the common insert, since IDs are assigned in increasing
// order. A remove leaves a tombstone, a bit in dead, instead of
// shifting the tail; once half the entries are dead the list compacts.
// A remove-then-reinsert of the same ID (rollback) clears its
// tombstone. Only an insert below the last entry of an ID the list does
// not hold (restore, recovery) costs O(n).
//
// A lent list never writes ids below their length: entries change only
// by append, and compaction and out-of-order inserts build a new array.
// A reader may therefore keep a copy of the ids header and walk it after
// the list has moved on, skipping entries that are no longer live (it
// must not read dead for that; the owner's tuple map answers). A list
// that is never lent compacts in place and keeps its array.
type idList struct {
	ids   []TupleID
	dead  []uint64 // tombstone bitmap over positions in ids; absent words are live
	ndead int
	lent  bool
}

// Len returns the number of live IDs.
func (l *idList) Len() int { return len(l.ids) - l.ndead }

func (l *idList) isDead(i int) bool {
	w := i >> 6
	return w < len(l.dead) && l.dead[w]&(1<<(i&63)) != 0
}

// find returns the position of id in ids, or where it would go, and
// whether it is there, live or dead.
func (l *idList) find(id TupleID) (int, bool) {
	i := sort.Search(len(l.ids), func(i int) bool { return l.ids[i] >= id })
	return i, i < len(l.ids) && l.ids[i] == id
}

// add inserts id; adding a live ID is a no-op.
func (l *idList) add(id TupleID) {
	if n := len(l.ids); n == 0 || l.ids[n-1] < id {
		l.ids = append(l.ids, id)
		return
	}
	i, found := l.find(id)
	if !found {
		l.compact(1)
		i, _ = l.find(id)
		l.ids = slices.Insert(l.ids, i, id)
		return
	}
	if l.isDead(i) {
		l.dead[i>>6] &^= 1 << (i & 63)
		l.ndead--
	}
}

// remove deletes id; removing an absent or dead ID is a no-op.
func (l *idList) remove(id TupleID) {
	i, found := l.find(id)
	if !found || l.isDead(i) {
		return
	}
	for w := i >> 6; len(l.dead) <= w; {
		l.dead = append(l.dead, 0)
	}
	l.dead[i>>6] |= 1 << (i & 63)
	l.ndead++
	if 2*l.ndead >= len(l.ids) {
		l.compact(0)
	}
}

// compact drops the tombstones, leaving room for extra more IDs. A lent
// list moves to a fresh array with room to grow.
func (l *idList) compact(extra int) {
	ids := l.ids[:0]
	if l.lent {
		ids = nil
		if n := l.Len() + extra; n > 0 {
			ids = make([]TupleID, 0, 2*n)
		}
	}
	for i, id := range l.ids {
		if !l.isDead(i) {
			ids = append(ids, id)
		}
	}
	l.ids = ids
	clear(l.dead)
	l.ndead = 0
}

// appendLive appends the live IDs, ascending, to dst.
func (l *idList) appendLive(dst []TupleID) []TupleID {
	if l.ndead == 0 {
		return append(dst, l.ids...)
	}
	for i, id := range l.ids {
		if !l.isDead(i) {
			dst = append(dst, id)
		}
	}
	return dst
}
