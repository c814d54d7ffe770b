package relation

import (
	"errors"
	"fmt"
	"os"
	"sync"

	"prodsys/internal/value"
)

// This file defines the pluggable storage layer behind Relation: the
// Store interface every tuple backend implements, the backend registry,
// and the value-interning cache shared by the backends. The paper's
// thesis is that working memory is relational data; making the relation
// a thin concurrency/accounting shell over an exchangeable access-method
// layer is the DBMS reading of that thesis (§3.2), and the seam the
// cost-based planner builds on.

// StorageKind names a tuple storage backend.
type StorageKind string

// The built-in storage backends.
const (
	// StorageRow is the row-major backend: a TupleID-keyed map with
	// hash+ordered secondary indexes. Best for tuple-at-a-time updates
	// and point access.
	StorageRow StorageKind = "row"
	// StorageColumnar is the column-major backend: per-attribute value
	// arrays with positional tombstones, optimized for the set-oriented
	// ApplyDelta maintenance path (bulk appends, single-column
	// selection scans).
	StorageColumnar StorageKind = "columnar"
)

// ErrUnknownStorage marks a storage-kind spelling with no backend; test
// with errors.Is.
var ErrUnknownStorage = errors.New("unknown storage backend")

// StorageKinds returns the available backends in stable order.
func StorageKinds() []StorageKind {
	return []StorageKind{StorageRow, StorageColumnar}
}

// ParseStorage validates a storage-kind spelling. The empty string
// selects the process default (see DefaultStorageKind).
func ParseStorage(s string) (StorageKind, error) {
	switch StorageKind(s) {
	case "":
		return DefaultStorageKind(), nil
	case StorageRow, StorageColumnar:
		return StorageKind(s), nil
	}
	return "", fmt.Errorf("%w: %q (want one of %v)", ErrUnknownStorage, s, StorageKinds())
}

// DefaultStorageKind is the backend used when none is configured: the
// PRODSYS_STORAGE environment variable when it names a valid backend,
// StorageRow otherwise. The env hook lets the whole test suite run
// against an alternate backend without per-call plumbing (the CI
// backend matrix).
func DefaultStorageKind() StorageKind {
	switch k := StorageKind(os.Getenv("PRODSYS_STORAGE")); k {
	case StorageRow, StorageColumnar:
		return k
	}
	return StorageRow
}

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
	// Backend is the storage kind serving the relation.
	Backend StorageKind
	// Tuples is the live cardinality.
	Tuples int
	// Indexes lists the secondary indexes in ascending position order.
	Indexes []IndexStat
}

// Store is a tuple storage backend: a bag of tuples addressable by
// TupleID with optional per-attribute secondary indexes (hash for
// equality, ordered for ranges). A Store is NOT safe for concurrent
// use — Relation serializes access under its lock and layers cloning,
// ID assignment, and I/O accounting on top.
//
// Tuples handed to Insert/InsertBatch are owned by the store; tuples
// returned by Get/Scan must not be mutated by the caller.
type Store interface {
	// Kind identifies the backend.
	Kind() StorageKind
	// Len returns the live tuple count.
	Len() int
	// Get returns the tuple stored under id.
	Get(id TupleID) (Tuple, bool)
	// Insert stores t under id. The caller guarantees id is not live
	// and t matches the arity.
	Insert(id TupleID, t Tuple)
	// InsertBatch bulk-stores entries (ascending IDs, none live) — the
	// set-oriented append the ApplyDelta path uses.
	InsertBatch(entries []DeltaEntry)
	// Delete removes the tuple under id, returning it.
	Delete(id TupleID) (Tuple, bool)
	// IDs returns a fresh slice of the live IDs in ascending order.
	IDs() []TupleID
	// Scan visits every live tuple in ascending TupleID order until fn
	// returns false.
	Scan(fn func(id TupleID, t Tuple) bool)
	// SelectEq returns the IDs (ascending) of tuples whose attribute at
	// pos equals v under OPS5 equality. indexed reports whether an index
	// probe served the call; otherwise the store fell back to scanning.
	SelectEq(pos int, v value.V) (ids []TupleID, indexed bool)
	// SelectRange returns the IDs (ascending) of tuples whose attribute
	// at pos lies within b. indexed reports an ordered-index probe; a
	// hash-only index cannot serve one, so the store scans.
	SelectRange(pos int, b Bounds) (ids []TupleID, indexed bool)
	// CreateIndex builds (idempotently) a hash index on pos and, when
	// ordered, its ordered side (an existing hash-only index gains it).
	CreateIndex(pos int, ordered bool)
	// HasIndex reports whether pos is indexed, and whether the index
	// has its ordered side.
	HasIndex(pos int) (indexed, ordered bool)
	// Clear removes every tuple but keeps the indexes.
	Clear()
	// Stats snapshots cardinality and per-index distinct counts.
	Stats() StoreStats
}

// newStore constructs a backend of the given kind. Unknown kinds fall
// back to the row store (callers validate with ParseStorage first).
func newStore(kind StorageKind, arity int) Store {
	if kind == StorageColumnar {
		return newColStore(arity)
	}
	return newRowStore()
}

// internTable deduplicates string payloads across the relations of one
// catalog. Interning makes equal stored strings share one backing
// array, so the string comparisons saturating the join/alpha hot path
// short-circuit on the data pointer instead of comparing bytes —
// janus-datalog measured 6.26× on comparison-bound workloads from
// exactly this. hits counts payloads that were already present.
type internTable struct {
	mu   sync.Mutex
	strs map[string]string
	hits int64
}

func newInternTable() *internTable {
	return &internTable{strs: make(map[string]string)}
}

// str returns the canonical copy of s, recording a hit when s was
// already interned.
func (it *internTable) str(s string) (string, bool) {
	it.mu.Lock()
	defer it.mu.Unlock()
	if c, ok := it.strs[s]; ok {
		it.hits++
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

// Hits returns the number of interned (deduplicated) payloads so far.
func (it *internTable) Hits() int64 {
	if it == nil {
		return 0
	}
	it.mu.Lock()
	defer it.mu.Unlock()
	return it.hits
}
