package relation

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"prodsys/internal/metrics"
	"prodsys/internal/value"
)

// ErrArity marks a tuple whose length disagrees with its relation's
// schema; test with errors.Is.
var ErrArity = errors.New("arity mismatch")

// ErrUnknownRelation marks a catalog lookup for a name with no
// relation; test with errors.Is.
var ErrUnknownRelation = errors.New("unknown relation")

// TupleID identifies a stored tuple within one relation. IDs are assigned
// monotonically and never reused, so they double as insertion timestamps
// (the "recency" used by OPS5-style conflict resolution).
type TupleID uint64

// DefaultPageSize is the simulated number of tuples per disk page used for
// I/O accounting.
const DefaultPageSize = 32

// Relation is a stored relation: a bag of tuples addressable by TupleID.
// Tuple storage and secondary indexes live behind the pluggable Store
// interface; Relation layers concurrency control, ID assignment, value
// interning, tuple cloning, and simulated I/O accounting on top. All
// methods are safe for concurrent use.
type Relation struct {
	schema   *Schema
	pageSize int
	stats    *metrics.Set
	intern   *internTable

	mu    sync.RWMutex
	store Store
	next  TupleID
}

// New creates an empty relation over schema with the row storage
// backend. stats may be nil.
func New(schema *Schema, stats *metrics.Set) *Relation {
	return NewWithStorage(schema, stats, StorageRow)
}

// NewWithStorage creates an empty relation served by the given storage
// backend. stats may be nil.
func NewWithStorage(schema *Schema, stats *metrics.Set, kind StorageKind) *Relation {
	return newRelation(schema, stats, kind, newInternTable())
}

// newRelation wires a relation to a (possibly catalog-shared) intern
// table.
func newRelation(schema *Schema, stats *metrics.Set, kind StorageKind, intern *internTable) *Relation {
	return &Relation{
		schema:   schema,
		pageSize: DefaultPageSize,
		stats:    stats,
		intern:   intern,
		store:    newStore(kind, schema.Arity()),
	}
}

// Schema returns the relation's schema.
func (r *Relation) Schema() *Schema { return r.schema }

// Name returns the relation name.
func (r *Relation) Name() string { return r.schema.Name() }

// Storage reports the backend serving this relation.
func (r *Relation) Storage() StorageKind {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.store.Kind()
}

// Len returns the current live tuple count. The count moves only under
// Insert/Delete/Clear; it is exact, never an estimate, regardless of
// backend.
func (r *Relation) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.store.Len()
}

// Stats snapshots the relation's storage shape: backend, cardinality,
// and per-index distinct key counts — the selectivity inputs a
// cost-based planner consumes.
func (r *Relation) Stats() StoreStats {
	r.mu.RLock()
	st := r.store.Stats()
	r.mu.RUnlock()
	for i := range st.Indexes {
		if p := st.Indexes[i].Pos; p >= 0 && p < r.schema.Arity() {
			st.Indexes[i].Attr = r.schema.Attrs()[p]
		}
	}
	return st
}

// CreateIndex builds (idempotently) secondary indexes — hash for
// equality probes, ordered for range probes — on the attribute at
// position pos.
func (r *Relation) CreateIndex(pos int) error { return r.createIndex(pos, true) }

// CreateHashIndex builds (idempotently) the hash side alone on the
// attribute at position pos: equality probes without the ordered side's
// per-change upkeep. A later CreateIndex adds the ordered side.
func (r *Relation) CreateHashIndex(pos int) error { return r.createIndex(pos, false) }

func (r *Relation) createIndex(pos int, ordered bool) error {
	if pos < 0 || pos >= r.schema.Arity() {
		return fmt.Errorf("relation %s: index position %d out of range", r.Name(), pos)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.store.CreateIndex(pos, ordered)
	return nil
}

// HasIndex reports whether an index exists on attribute position pos.
func (r *Relation) HasIndex(pos int) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	indexed, _ := r.store.HasIndex(pos)
	return indexed
}

// HasOrderedIndex reports whether the index on attribute position pos
// can serve range probes.
func (r *Relation) HasOrderedIndex(pos int) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ordered := r.store.HasIndex(pos)
	return ordered
}

// internTuple canonicalizes the string payloads of a freshly cloned
// tuple in place, so equal stored strings share one backing array and
// the comparison hot path short-circuits on pointers.
func (r *Relation) internTuple(t Tuple) {
	if r.intern == nil {
		return
	}
	for i, v := range t {
		iv, hit := r.intern.val(v)
		t[i] = iv
		if hit {
			r.stats.Inc(metrics.InternHits)
		}
	}
}

// Insert stores tuple t and returns its new ID. The tuple is cloned, so
// callers may reuse the slice.
func (r *Relation) Insert(t Tuple) (TupleID, error) {
	if len(t) != r.schema.Arity() {
		return 0, fmt.Errorf("relation %s: %w: tuple has %d values, schema needs %d",
			r.Name(), ErrArity, len(t), r.schema.Arity())
	}
	ct := t.Clone()
	r.internTuple(ct)
	r.mu.Lock()
	r.next++
	id := r.next
	r.store.Insert(id, ct)
	r.mu.Unlock()
	r.stats.Inc(metrics.TuplesInserted)
	r.stats.Inc(metrics.PagesWritten)
	return id, nil
}

// InsertBatch stores the tuples of entries in one storage operation,
// assigning ascending IDs which are written back into the entries —
// the set-oriented append path of ApplyDelta. Entry tuples are cloned.
func (r *Relation) InsertBatch(entries []DeltaEntry) error {
	for _, e := range entries {
		if len(e.Tuple) != r.schema.Arity() {
			return fmt.Errorf("relation %s: %w: tuple has %d values, schema needs %d",
				r.Name(), ErrArity, len(e.Tuple), r.schema.Arity())
		}
	}
	if len(entries) == 0 {
		return nil
	}
	staged := make([]DeltaEntry, len(entries))
	for i, e := range entries {
		ct := e.Tuple.Clone()
		r.internTuple(ct)
		staged[i] = DeltaEntry{Tuple: ct}
	}
	r.mu.Lock()
	for i := range staged {
		r.next++
		staged[i].ID = r.next
	}
	r.store.InsertBatch(staged)
	r.mu.Unlock()
	for i := range staged {
		entries[i].ID = staged[i].ID
		entries[i].Tuple = staged[i].Tuple
	}
	r.stats.Inc(metrics.BatchInserts)
	r.stats.Add(metrics.TuplesInserted, int64(len(staged)))
	r.stats.Add(metrics.PagesWritten, int64((len(staged)+r.pageSize-1)/r.pageSize))
	return nil
}

// Get returns the tuple stored under id.
func (r *Relation) Get(id TupleID) (Tuple, bool) {
	r.mu.RLock()
	t, ok := r.store.Get(id)
	r.mu.RUnlock()
	if !ok {
		return nil, false
	}
	return t.Clone(), true
}

// Delete removes the tuple stored under id, returning the removed tuple.
func (r *Relation) Delete(id TupleID) (Tuple, error) {
	r.mu.Lock()
	t, ok := r.store.Delete(id)
	r.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("relation %s: delete of unknown tuple id %d", r.Name(), id)
	}
	r.stats.Inc(metrics.TuplesDeleted)
	r.stats.Inc(metrics.PagesWritten)
	return t, nil
}

// Scan visits every tuple in ascending TupleID order — a guarantee of
// the Store contract, never Go map iteration order, so a scan is
// deterministic for a given working-memory state on every backend —
// until fn returns false. The visited tuples are the live ones at call
// time; fn must not mutate the relation or the visited tuples.
func (r *Relation) Scan(fn func(id TupleID, t Tuple) bool) {
	r.mu.RLock()
	ids := r.store.IDs()
	r.mu.RUnlock()
	r.accountScan(len(ids))
	for _, id := range ids {
		r.mu.RLock()
		t, ok := r.store.Get(id)
		r.mu.RUnlock()
		if !ok {
			continue
		}
		r.stats.Inc(metrics.TuplesScanned)
		if !fn(id, t) {
			return
		}
	}
}

// accountScan charges simulated page reads for touching n tuples.
func (r *Relation) accountScan(n int) {
	if n == 0 {
		return
	}
	r.stats.Add(metrics.PagesRead, int64((n+r.pageSize-1)/r.pageSize))
}

// SelectEq returns the IDs of tuples whose attribute at pos equals v,
// probing the hash index when one exists and scanning otherwise.
// Results are in ascending ID order.
func (r *Relation) SelectEq(pos int, v value.V) []TupleID {
	r.mu.RLock()
	ids, indexed := r.store.SelectEq(pos, v)
	n := r.store.Len()
	r.mu.RUnlock()
	if indexed {
		r.stats.Inc(metrics.IndexLookups)
		r.stats.Inc(metrics.PagesRead)
	} else {
		r.stats.Add(metrics.TuplesScanned, int64(n))
		r.accountScan(n)
	}
	return ids
}

// SelectRange returns the IDs of tuples whose attribute at pos lies
// within b, probing the ordered index when one exists and scanning
// otherwise. Results are in ascending ID order.
func (r *Relation) SelectRange(pos int, b Bounds) []TupleID {
	r.mu.RLock()
	ids, indexed := r.store.SelectRange(pos, b)
	n := r.store.Len()
	r.mu.RUnlock()
	if indexed {
		r.stats.Inc(metrics.IndexRangeProbes)
		r.stats.Inc(metrics.PagesRead)
	} else {
		r.stats.Add(metrics.TuplesScanned, int64(n))
		r.accountScan(n)
	}
	return ids
}

// Select returns IDs of tuples satisfying every restriction. The access
// path is chosen in order of selectivity: an indexed equality
// restriction is probed via the hash index; failing that, the indexed
// range restrictions on one attribute are merged and probed via the
// ordered index; otherwise the relation is scanned.
func (r *Relation) Select(rs []Restriction) []TupleID {
	// First choice: indexed equality probe.
	probe := -1
	for i, c := range rs {
		if c.Op == value.OpEq && r.HasIndex(c.Pos) {
			probe = i
			break
		}
	}
	var candidates []TupleID
	switch {
	case probe >= 0:
		candidates = r.SelectEq(rs[probe].Pos, rs[probe].Val)
	default:
		// Second choice: ordered-index range probe, merging every range
		// restriction on the chosen attribute (e.g. lo < salary < hi).
		rangePos := -1
		var rb Bounds
		for _, c := range rs {
			b, ok := RangeFor(c.Op, c.Val)
			if !ok || !r.HasOrderedIndex(c.Pos) {
				continue
			}
			if rangePos < 0 {
				rangePos, rb = c.Pos, b
			} else if c.Pos == rangePos {
				rb = rb.And(b)
			}
		}
		if rangePos < 0 {
			// Last resort: full scan.
			var out []TupleID
			r.Scan(func(id TupleID, t Tuple) bool {
				if SatisfiesAll(t, rs) {
					out = append(out, id)
				}
				return true
			})
			return out
		}
		candidates = r.SelectRange(rangePos, rb)
	}
	// Residual filtering of the probed candidates is not charged as
	// tuples_scanned: the index probe above already accounted the
	// access path, and each Select must count exactly one access path
	// so planner Explain's actual-vs-estimated rows reconcile.
	var out []TupleID
	for _, id := range candidates {
		r.mu.RLock()
		t, ok := r.store.Get(id)
		r.mu.RUnlock()
		if !ok {
			continue
		}
		if SatisfiesAll(t, rs) {
			out = append(out, id)
		}
	}
	return out
}

// SelectTuples is Select but materializes the tuples alongside their IDs.
func (r *Relation) SelectTuples(rs []Restriction) (ids []TupleID, tuples []Tuple) {
	ids = r.Select(rs)
	tuples = make([]Tuple, len(ids))
	for i, id := range ids {
		t, _ := r.Get(id)
		tuples[i] = t
	}
	return ids, tuples
}

// FindEqual returns the ID of the oldest live tuple value-equal to t,
// for delete-by-value semantics (OPS5 remove addresses the matched
// element; the DBMS translation deletes an equal tuple). "Oldest" is
// well-defined because Scan order is ascending TupleID on every
// backend.
func (r *Relation) FindEqual(t Tuple) (TupleID, bool) {
	var found TupleID
	ok := false
	r.Scan(func(id TupleID, u Tuple) bool {
		if u.Equal(t) {
			found, ok = id, true
			return false
		}
		return true
	})
	return found, ok
}

// Clear removes all tuples but keeps indexes and the ID counter.
func (r *Relation) Clear() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.store.Clear()
}

// DB is a catalog of relations sharing one metrics set, one
// value-interning table, and a storage-backend configuration.
type DB struct {
	mu      sync.RWMutex
	rels    map[string]*Relation
	stats   *metrics.Set
	def     StorageKind
	byClass map[string]StorageKind
	intern  *internTable
}

// NewDB creates an empty catalog whose relations default to
// DefaultStorageKind() (StorageRow unless overridden by the
// PRODSYS_STORAGE environment variable). stats may be nil.
func NewDB(stats *metrics.Set) *DB {
	return &DB{
		rels:    make(map[string]*Relation),
		stats:   stats,
		def:     DefaultStorageKind(),
		byClass: make(map[string]StorageKind),
		intern:  newInternTable(),
	}
}

// Stats returns the catalog's metrics set.
func (db *DB) Stats() *metrics.Set { return db.stats }

// InternHits returns the number of string payloads the catalog's
// interning cache has deduplicated.
func (db *DB) InternHits() int64 { return db.intern.Hits() }

// SetDefaultStorage selects the backend for relations created from now
// on; the empty kind resets to the process default. Existing relations
// are unaffected.
func (db *DB) SetDefaultStorage(kind StorageKind) error {
	k, err := ParseStorage(string(kind))
	if err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	db.def = k
	return nil
}

// SetClassStorage overrides the backend for one future relation by
// name. It is an error if the relation already exists.
func (db *DB) SetClassStorage(name string, kind StorageKind) error {
	k, err := ParseStorage(string(kind))
	if err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, exists := db.rels[name]; exists {
		return fmt.Errorf("relation %s already exists", name)
	}
	db.byClass[name] = k
	return nil
}

// StorageFor reports the backend a relation of the given name has (when
// live) or would be created with.
func (db *DB) StorageFor(name string) StorageKind {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if r, ok := db.rels[name]; ok {
		return r.store.Kind()
	}
	if k, ok := db.byClass[name]; ok {
		return k
	}
	return db.def
}

// Create adds a new relation; it is an error if the name exists. The
// backend is the per-class override when one is set, the catalog
// default otherwise.
func (db *DB) Create(name string, attrs ...string) (*Relation, error) {
	schema, err := NewSchema(name, attrs...)
	if err != nil {
		return nil, err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, dup := db.rels[name]; dup {
		return nil, fmt.Errorf("relation %s already exists", name)
	}
	kind := db.def
	if k, ok := db.byClass[name]; ok {
		kind = k
	}
	r := newRelation(schema, db.stats, kind, db.intern)
	db.rels[name] = r
	return r, nil
}

// Get returns the named relation.
func (db *DB) Get(name string) (*Relation, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	r, ok := db.rels[name]
	return r, ok
}

// Lookup returns the named relation or ErrUnknownRelation (wrapped
// with the name) when absent.
func (db *DB) Lookup(name string) (*Relation, error) {
	r, ok := db.Get(name)
	if !ok {
		return nil, fmt.Errorf("relation %s: %w", name, ErrUnknownRelation)
	}
	return r, nil
}

// MustGet returns the named relation, panicking if absent; for callers
// that have already validated the catalog against the rule set. Code
// that handles unvalidated names should use Lookup instead.
func (db *DB) MustGet(name string) *Relation {
	r, err := db.Lookup(name)
	if err != nil {
		panic(err.Error())
	}
	return r
}

// Drop removes the named relation from the catalog.
func (db *DB) Drop(name string) {
	db.mu.Lock()
	defer db.mu.Unlock()
	delete(db.rels, name)
}

// Names returns the catalog's relation names in sorted order.
func (db *DB) Names() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.rels))
	for n := range db.rels {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
