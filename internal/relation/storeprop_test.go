package relation

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"prodsys/internal/metrics"
	"prodsys/internal/value"
)

// randVal draws a value from a small mixed-type domain: ints, floats
// that collapse to ints under Key(), strings, symbols, and the odd nil.
func randVal(rng *rand.Rand) value.V {
	switch rng.Intn(10) {
	case 0:
		return value.V{} // nil: equal to nothing, never indexed
	case 1, 2:
		return value.OfFloat(float64(rng.Intn(20)))
	case 3, 4:
		return value.OfSym(fmt.Sprintf("s%d", rng.Intn(8)))
	case 5:
		return value.OfString(fmt.Sprintf("s%d", rng.Intn(8)))
	default:
		return value.OfInt(int64(rng.Intn(20)))
	}
}

// buildRandom populates a fresh 3-ary relation on the given backend with
// churn: n inserts interleaved with random deletes.
func buildRandom(t *testing.T, kind StorageKind, indexed []int, seed int64, n int) *Relation {
	t.Helper()
	return buildRandomWith(t, kind, indexed, (*Relation).CreateIndex, seed, n)
}

// buildRandomWith is buildRandom with the index constructor as a
// parameter (hash+ordered or hash-only).
func buildRandomWith(t *testing.T, kind StorageKind, indexed []int, create func(*Relation, int) error, seed int64, n int) *Relation {
	t.Helper()
	schema, err := NewSchema("T", "a", "b", "c")
	if err != nil {
		t.Fatal(err)
	}
	rel := NewWithStorage(schema, &metrics.Set{}, kind)
	for _, pos := range indexed {
		if err := create(rel, pos); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	var live []TupleID
	for i := 0; i < n; i++ {
		id, err := rel.Insert(Tuple{randVal(rng), randVal(rng), randVal(rng)})
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, id)
		if len(live) > 4 && rng.Intn(3) == 0 {
			k := rng.Intn(len(live))
			if _, err := rel.Delete(live[k]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:k], live[k+1:]...)
		}
	}
	return rel
}

// scanWhere is the brute-force oracle: every live tuple satisfying pred,
// in scan order.
func scanWhere(rel *Relation, pred func(Tuple) bool) []TupleID {
	var out []TupleID
	rel.Scan(func(id TupleID, t Tuple) bool {
		if pred(t) {
			out = append(out, id)
		}
		return true
	})
	return out
}

func sorted(ids []TupleID) []TupleID {
	out := append([]TupleID(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestPropSelectAgreesWithScan drives randomized single- and
// multi-restriction selections over both backends — with position 1
// indexed and position 0 deliberately not — and checks that every access
// path (hash probe, ordered range probe, fallback scan) returns exactly
// the tuples a full scan filter returns.
func TestPropSelectAgreesWithScan(t *testing.T) {
	ops := []value.Op{value.OpEq, value.OpNe, value.OpLt, value.OpLe, value.OpGt, value.OpGe}
	for _, kind := range StorageKinds() {
		t.Run(string(kind), func(t *testing.T) {
			rel := buildRandom(t, kind, []int{1, 2}, 11, 400)
			rng := rand.New(rand.NewSource(99))
			for trial := 0; trial < 500; trial++ {
				pos := rng.Intn(3)
				op := ops[rng.Intn(len(ops))]
				v := randVal(rng)
				rs := []Restriction{{Pos: pos, Op: op, Val: v}}
				if rng.Intn(3) == 0 { // sometimes a conjunction, e.g. lo < b < hi
					rs = append(rs, Restriction{Pos: rng.Intn(3), Op: ops[rng.Intn(len(ops))], Val: randVal(rng)})
				}
				want := scanWhere(rel, func(t Tuple) bool { return SatisfiesAll(t, rs) })
				got := sorted(rel.Select(rs))
				if !reflect.DeepEqual(got, sorted(want)) {
					t.Fatalf("trial %d: Select(%v) = %v, scan oracle = %v", trial, rs, got, want)
				}
			}
			// SelectEq and SelectRange directly.
			for trial := 0; trial < 300; trial++ {
				pos := rng.Intn(3)
				v := randVal(rng)
				wantEq := scanWhere(rel, func(t Tuple) bool { return value.Equal(t[pos], v) })
				if got := sorted(rel.SelectEq(pos, v)); !reflect.DeepEqual(got, sorted(wantEq)) {
					t.Fatalf("trial %d: SelectEq(%d, %v) = %v, oracle %v", trial, pos, v, got, wantEq)
				}
				b, ok := RangeFor(ops[2+rng.Intn(4)], v) // Lt/Le/Gt/Ge
				if !ok {
					continue // nil probe value: no range
				}
				if rng.Intn(2) == 0 {
					if b2, ok2 := RangeFor(ops[2+rng.Intn(4)], randVal(rng)); ok2 {
						b = b.And(b2)
					}
				}
				wantR := scanWhere(rel, func(t Tuple) bool { return b.Contains(t[pos]) })
				if got := sorted(rel.SelectRange(pos, b)); !reflect.DeepEqual(got, sorted(wantR)) {
					t.Fatalf("trial %d: SelectRange(%d, %+v) = %v, oracle %v", trial, pos, b, got, wantR)
				}
			}
		})
	}
}

// TestPropHashOnlyIndex repeats the oracle checks with hash-only indexes
// (positions 1 and 2) on both backends: equality probes are served by the
// index, range selections fall back to a scan — SelectRange reports no
// ordered probe — and every answer equals the scan oracle's. Adding the
// ordered side later makes ranges index probes that stay exact under
// further churn.
func TestPropHashOnlyIndex(t *testing.T) {
	ops := []value.Op{value.OpEq, value.OpNe, value.OpLt, value.OpLe, value.OpGt, value.OpGe}
	for _, kind := range StorageKinds() {
		t.Run(string(kind), func(t *testing.T) {
			rel := buildRandomWith(t, kind, []int{1, 2}, (*Relation).CreateHashIndex, 17, 400)
			if !rel.HasIndex(1) || rel.HasOrderedIndex(1) || rel.HasOrderedIndex(0) {
				t.Fatalf("index kinds: hash(1)=%v ordered(1)=%v ordered(0)=%v", rel.HasIndex(1), rel.HasOrderedIndex(1), rel.HasOrderedIndex(0))
			}
			rng := rand.New(rand.NewSource(5))
			checkRanges := func(wantProbe bool) {
				t.Helper()
				for trial := 0; trial < 300; trial++ {
					pos := rng.Intn(3)
					v := randVal(rng)
					rs := []Restriction{{Pos: pos, Op: ops[rng.Intn(len(ops))], Val: v}}
					want := scanWhere(rel, func(t Tuple) bool { return SatisfiesAll(t, rs) })
					if got := sorted(rel.Select(rs)); !reflect.DeepEqual(got, sorted(want)) {
						t.Fatalf("trial %d: Select(%v) = %v, scan oracle = %v", trial, rs, got, want)
					}
					lookups := rel.stats.Get(metrics.IndexLookups)
					wantEq := scanWhere(rel, func(t Tuple) bool { return value.Equal(t[pos], v) })
					if got := rel.SelectEq(pos, v); !reflect.DeepEqual(sorted(got), sorted(wantEq)) {
						t.Fatalf("trial %d: SelectEq(%d, %v) = %v, oracle %v", trial, pos, v, got, wantEq)
					}
					if probed := rel.stats.Get(metrics.IndexLookups) > lookups; probed != (pos > 0) {
						t.Fatalf("trial %d: SelectEq(%d) index probe = %v", trial, pos, probed)
					}
					b, ok := RangeFor(ops[2+rng.Intn(4)], v)
					if !ok {
						continue
					}
					probes := rel.stats.Get(metrics.IndexRangeProbes)
					wantR := scanWhere(rel, func(t Tuple) bool { return b.Contains(t[pos]) })
					if got := rel.SelectRange(pos, b); !reflect.DeepEqual(sorted(got), sorted(wantR)) {
						t.Fatalf("trial %d: SelectRange(%d, %+v) = %v, oracle %v", trial, pos, b, got, wantR)
					}
					if probed := rel.stats.Get(metrics.IndexRangeProbes) > probes; probed != (wantProbe && pos == 1) {
						t.Fatalf("trial %d: SelectRange(%d) ordered probe = %v", trial, pos, probed)
					}
				}
			}
			checkRanges(false)
			if err := rel.CreateIndex(1); err != nil {
				t.Fatal(err)
			}
			if !rel.HasOrderedIndex(1) || rel.HasOrderedIndex(2) {
				t.Fatal("CreateIndex(1) should add the ordered side to position 1 only")
			}
			for i := 0; i < 200; i++ {
				id, err := rel.Insert(Tuple{randVal(rng), randVal(rng), randVal(rng)})
				if err != nil {
					t.Fatal(err)
				}
				if i%3 == 0 {
					if _, err := rel.Delete(id - TupleID(rng.Intn(50))); err != nil {
						continue // already gone
					}
				}
			}
			checkRanges(true)
		})
	}
}

// TestPropBackendsEquivalent applies one randomized churn stream to a
// row-backed and a columnar-backed relation and checks they are
// observationally identical: same Len, same Scan sequence (ascending
// TupleID order on every backend), same selection results, same
// FindEqual answers.
func TestPropBackendsEquivalent(t *testing.T) {
	row := buildRandom(t, StorageRow, []int{0, 1}, 7, 500)
	col := buildRandom(t, StorageColumnar, []int{0, 1}, 7, 500)
	if row.Len() != col.Len() {
		t.Fatalf("Len: row %d, columnar %d", row.Len(), col.Len())
	}
	type pair struct {
		ID TupleID
		T  string
	}
	snap := func(r *Relation) []pair {
		var out []pair
		r.Scan(func(id TupleID, t Tuple) bool {
			out = append(out, pair{id, t.String()})
			return true
		})
		return out
	}
	rs, cs := snap(row), snap(col)
	if !reflect.DeepEqual(rs, cs) {
		t.Fatalf("scan sequences diverge:\nrow: %v\ncol: %v", rs, cs)
	}
	rng := rand.New(rand.NewSource(3))
	ops := []value.Op{value.OpEq, value.OpNe, value.OpLt, value.OpLe, value.OpGt, value.OpGe}
	for trial := 0; trial < 400; trial++ {
		rsx := []Restriction{{Pos: rng.Intn(3), Op: ops[rng.Intn(len(ops))], Val: randVal(rng)}}
		a, b := sorted(row.Select(rsx)), sorted(col.Select(rsx))
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("trial %d: Select(%v): row %v, columnar %v", trial, rsx, a, b)
		}
	}
	// FindEqual returns the oldest live match on both backends.
	row.Scan(func(id TupleID, tup Tuple) bool {
		rid, rok := row.FindEqual(tup)
		cid, cok := col.FindEqual(tup)
		if rok != cok || rid != cid {
			t.Fatalf("FindEqual(%v): row (%d,%v), columnar (%d,%v)", tup, rid, rok, cid, cok)
		}
		return true
	})
}

// TestDumpRestoreAcrossBackends round-trips a dump taken from one
// backend into a catalog running the other backend: contents, IDs, and
// subsequent ID assignment must survive the swap.
func TestDumpRestoreAcrossBackends(t *testing.T) {
	kinds := StorageKinds()
	for _, from := range kinds {
		for _, to := range kinds {
			t.Run(string(from)+"_to_"+string(to), func(t *testing.T) {
				src := NewDB(&metrics.Set{})
				if err := src.SetDefaultStorage(from); err != nil {
					t.Fatal(err)
				}
				rel, err := src.Create("T", "a", "b", "c")
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(21))
				var live []TupleID
				for i := 0; i < 200; i++ {
					id, err := rel.Insert(Tuple{randVal(rng), randVal(rng), randVal(rng)})
					if err != nil {
						t.Fatal(err)
					}
					live = append(live, id)
					if len(live) > 2 && rng.Intn(4) == 0 {
						k := rng.Intn(len(live))
						if _, err := rel.Delete(live[k]); err != nil {
							t.Fatal(err)
						}
						live = append(live[:k], live[k+1:]...)
					}
				}
				var buf bytes.Buffer
				if err := src.Dump(&buf); err != nil {
					t.Fatal(err)
				}

				dst := NewDB(&metrics.Set{})
				if err := dst.SetDefaultStorage(to); err != nil {
					t.Fatal(err)
				}
				drel, err := dst.Create("T", "a", "b", "c")
				if err != nil {
					t.Fatal(err)
				}
				if _, err := dst.Restore(&buf); err != nil {
					t.Fatal(err)
				}
				if drel.Storage() != to {
					t.Fatalf("restored backend = %s, want %s", drel.Storage(), to)
				}
				snap := func(r *Relation) []string {
					var out []string
					r.Scan(func(id TupleID, tup Tuple) bool {
						out = append(out, fmt.Sprintf("%d:%s", id, tup))
						return true
					})
					return out
				}
				if got, want := snap(drel), snap(rel); !reflect.DeepEqual(got, want) {
					t.Fatalf("restored contents diverge:\ngot  %v\nwant %v", got, want)
				}
				// Fresh inserts must not collide with restored IDs.
				id, err := drel.Insert(Tuple{value.OfInt(1), value.OfInt(2), value.OfInt(3)})
				if err != nil {
					t.Fatal(err)
				}
				for _, l := range snap(rel) {
					if fmt.Sprintf("%d:", id) == l[:len(fmt.Sprintf("%d:", id))] {
						t.Fatalf("fresh ID %d collides with restored tuple %s", id, l)
					}
				}
			})
		}
	}
}

// TestStoreStats checks the typed Stats view on both backends.
func TestStoreStats(t *testing.T) {
	for _, kind := range StorageKinds() {
		rel := buildRandom(t, kind, []int{1}, 5, 100)
		st := rel.Stats()
		if st.Backend != kind {
			t.Errorf("%s: Backend = %s", kind, st.Backend)
		}
		if st.Tuples != rel.Len() {
			t.Errorf("%s: Tuples = %d, Len = %d", kind, st.Tuples, rel.Len())
		}
		if len(st.Indexes) != 1 || st.Indexes[0].Pos != 1 || st.Indexes[0].Attr != "b" {
			t.Errorf("%s: Indexes = %+v", kind, st.Indexes)
		}
		// Distinct count matches a scan over the indexed column.
		seen := map[value.V]bool{}
		rel.Scan(func(id TupleID, tup Tuple) bool {
			if !tup[1].IsNil() {
				seen[tup[1].Key()] = true
			}
			return true
		})
		if st.Indexes[0].Distinct != len(seen) {
			t.Errorf("%s: Distinct = %d, scan says %d", kind, st.Indexes[0].Distinct, len(seen))
		}
	}
}
