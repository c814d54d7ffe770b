package relation

import "slices"

// DeltaEntry is one working-memory change within a Delta: a tuple
// together with the ID it is (or was) stored under.
type DeltaEntry struct {
	ID    TupleID
	Tuple Tuple
}

// Delta groups the net working-memory change of one write unit per
// class: the unit the maintenance pipeline processes at a time. A Delta
// lets the matchers amortize their per-class work — one COND-relation
// scan per (class, condition element) pair, one join re-evaluation per
// affected rule, one pass over each beta memory — over every tuple in
// the unit (the set-at-a-time processing of §4.2/§5.1).
//
// Insertions and deletions are kept separate; a maintenance pass applies
// all deletions before all insertions, which yields the same final
// conflict set as any sequential interleaving of the same net changes.
// A Delta is reusable: Reset empties it and keeps its buffers. It is not
// safe for concurrent use.
type Delta struct {
	byClass map[string]*classDelta
	classes []string // classes touched since the last Reset
}

// classDelta is one class's share of a Delta. born maps each pending
// insertion's ID to its index in ins, so deleting a tuple born in the
// unit cancels it in O(1), leaving a tombstone (ID 0) Inserts compacts.
type classDelta struct {
	ins, del []DeltaEntry
	born     map[TupleID]int
	dead     int
	listed   bool // in Delta.classes
}

// NewDelta creates an empty batch.
func NewDelta() *Delta {
	return &Delta{byClass: make(map[string]*classDelta)}
}

// class returns class's share, registering the class as touched.
func (d *Delta) class(class string) *classDelta {
	cd := d.byClass[class]
	if cd == nil {
		cd = &classDelta{born: make(map[TupleID]int)}
		d.byClass[class] = cd
	}
	if !cd.listed {
		cd.listed = true
		d.classes = append(d.classes, class)
	}
	return cd
}

// AddInsert records that tuple t was stored in class under id.
func (d *Delta) AddInsert(class string, id TupleID, t Tuple) {
	cd := d.class(class)
	cd.born[id] = len(cd.ins)
	cd.ins = append(cd.ins, DeltaEntry{ID: id, Tuple: t})
}

// AddDelete records that the identified tuple (with value t at removal
// time) was removed from class. A tuple inserted earlier in the same
// delta nets out instead: its pending insertion is withdrawn and the
// deletion is not recorded.
func (d *Delta) AddDelete(class string, id TupleID, t Tuple) {
	cd := d.class(class)
	if i, ok := cd.born[id]; ok {
		delete(cd.born, id)
		cd.ins[i] = DeltaEntry{}
		cd.dead++
		return
	}
	cd.del = append(cd.del, DeltaEntry{ID: id, Tuple: t})
}

// Inserts returns the net insertions for one class, in arrival order.
// The slice belongs to the delta and is valid until the next change.
func (d *Delta) Inserts(class string) []DeltaEntry {
	cd := d.byClass[class]
	if cd == nil {
		return nil
	}
	if cd.dead > 0 {
		live := cd.ins[:0]
		for _, e := range cd.ins {
			if e.ID != 0 {
				cd.born[e.ID] = len(live)
				live = append(live, e)
			}
		}
		clear(cd.ins[len(live):])
		cd.ins, cd.dead = live, 0
	}
	return cd.ins
}

// Deletes returns the net deletions for one class, in arrival order.
func (d *Delta) Deletes(class string) []DeltaEntry {
	if cd := d.byClass[class]; cd != nil {
		return cd.del
	}
	return nil
}

// Classes lists every class touched since the last Reset, sorted so
// maintenance order is deterministic. A class whose insertions all
// netted out is still listed, with empty Inserts. The slice belongs to
// the delta.
func (d *Delta) Classes() []string {
	slices.Sort(d.classes)
	return d.classes
}

// Reset empties the delta for the next unit, keeping its buffers.
func (d *Delta) Reset() {
	for _, c := range d.classes {
		cd := d.byClass[c]
		for _, e := range cd.ins { // not clear(born): that costs its capacity
			delete(cd.born, e.ID)
		}
		clear(cd.ins)
		clear(cd.del)
		cd.ins, cd.del, cd.dead, cd.listed = cd.ins[:0], cd.del[:0], 0, false
	}
	d.classes = d.classes[:0]
}
