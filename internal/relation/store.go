package relation

import (
	"sync"

	"prodsys/internal/value"
)

// This file holds the shapes shared by Relation and its row store: the
// range Bounds an ordered-index probe takes, the StoreStats snapshot a
// cost-based planner reads, and the value-interning cache shared by the
// relations of one catalog. The paper's thesis is that working memory is
// relational data served by the DBMS's access methods (§3.2): hash and
// ordered indexes over one row store.

// Bounds is a one-dimensional range over attribute values: Lo/Hi are
// inclusive or exclusive endpoints, and a nil value leaves that side
// unbounded. Comparisons follow value.Compare, so a bound only admits
// values of its own category (numeric or textual) — exactly the
// semantics of value.Op.Apply for the range operators.
type Bounds struct {
	Lo, Hi         value.V
	LoIncl, HiIncl bool
}

// RangeFor translates a range restriction "attr op v" into Bounds; ok
// is false for operators that are not ranges (=, <>) or a nil operand.
func RangeFor(op value.Op, v value.V) (Bounds, bool) {
	if v.IsNil() {
		return Bounds{}, false
	}
	switch op {
	case value.OpLt:
		return Bounds{Hi: v}, true
	case value.OpLe:
		return Bounds{Hi: v, HiIncl: true}, true
	case value.OpGt:
		return Bounds{Lo: v}, true
	case value.OpGe:
		return Bounds{Lo: v, LoIncl: true}, true
	}
	return Bounds{}, false
}

// Contains reports whether v lies within the bounds. Values incomparable
// with a bound (nil, or the other category) are outside.
func (b Bounds) Contains(v value.V) bool {
	if !b.Lo.IsNil() {
		cmp, ok := value.Compare(v, b.Lo)
		if !ok || cmp < 0 || (cmp == 0 && !b.LoIncl) {
			return false
		}
	}
	if !b.Hi.IsNil() {
		cmp, ok := value.Compare(v, b.Hi)
		if !ok || cmp > 0 || (cmp == 0 && !b.HiIncl) {
			return false
		}
	}
	return true
}

// And intersects two bounds, keeping the tighter endpoint on each side.
// Incomparable endpoints (mixed categories) keep the receiver's side;
// the residual restriction filter catches what the probe over-returns.
func (b Bounds) And(o Bounds) Bounds {
	out := b
	if !o.Lo.IsNil() {
		if out.Lo.IsNil() {
			out.Lo, out.LoIncl = o.Lo, o.LoIncl
		} else if cmp, ok := value.Compare(o.Lo, out.Lo); ok && (cmp > 0 || (cmp == 0 && !o.LoIncl)) {
			out.Lo, out.LoIncl = o.Lo, o.LoIncl
		}
	}
	if !o.Hi.IsNil() {
		if out.Hi.IsNil() {
			out.Hi, out.HiIncl = o.Hi, o.HiIncl
		} else if cmp, ok := value.Compare(o.Hi, out.Hi); ok && (cmp < 0 || (cmp == 0 && !o.HiIncl)) {
			out.Hi, out.HiIncl = o.Hi, o.HiIncl
		}
	}
	return out
}

// IndexStat describes one secondary index for planning and diagnostics.
type IndexStat struct {
	// Pos is the indexed attribute position.
	Pos int
	// Attr is the attribute name (filled by Relation.StoreStats).
	Attr string
	// Distinct is the number of distinct live key values — the
	// selectivity input a cost-based planner needs.
	Distinct int
}

// StoreStats is a typed snapshot of one store's shape.
type StoreStats struct {
	// Tuples is the live cardinality.
	Tuples int
	// Indexes lists the secondary indexes in ascending position order.
	Indexes []IndexStat
}

// internTable deduplicates string payloads across the relations of one
// catalog. Interning makes equal stored strings share one backing
// array, so the string comparisons saturating the join/alpha hot path
// short-circuit on the data pointer instead of comparing bytes —
// janus-datalog measured 6.26× on comparison-bound workloads from
// exactly this.
type internTable struct {
	mu   sync.Mutex
	strs map[string]string
}

func newInternTable() *internTable {
	return &internTable{strs: make(map[string]string)}
}

// str returns the canonical copy of s and whether s was already
// interned.
func (it *internTable) str(s string) (string, bool) {
	it.mu.Lock()
	defer it.mu.Unlock()
	if c, ok := it.strs[s]; ok {
		return c, true
	}
	it.strs[s] = s
	return s, false
}

// val canonicalizes the payload of textual values; other kinds pass
// through untouched.
func (it *internTable) val(v value.V) (value.V, bool) {
	if it == nil {
		return v, false
	}
	switch v.Kind() {
	case value.Str:
		s, hit := it.str(v.AsString())
		return value.OfString(s), hit
	case value.Sym:
		s, hit := it.str(v.AsString())
		return value.OfSym(s), hit
	}
	return v, false
}
