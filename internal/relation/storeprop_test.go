package relation

import (
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

// buildRandom populates a fresh 3-ary relation with churn: n inserts
// interleaved with random deletes.
func buildRandom(t *testing.T, indexed []int, seed int64, n int) *Relation {
	t.Helper()
	return buildRandomWith(t, indexed, (*Relation).CreateIndex, seed, n)
}

// buildRandomWith is buildRandom with the index constructor as a
// parameter (hash+ordered or hash-only).
func buildRandomWith(t *testing.T, indexed []int, create func(*Relation, int) error, seed int64, n int) *Relation {
	t.Helper()
	schema, err := NewSchema("T", "a", "b", "c")
	if err != nil {
		t.Fatal(err)
	}
	rel := New(schema, &metrics.Set{})
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
// multi-restriction selections — with position 1 indexed and position 0
// deliberately not — and checks that every access path (hash probe,
// ordered range probe, fallback scan) returns exactly the tuples a full
// scan filter returns. The "row" subtest names the row store, the one
// storage layout.
func TestPropSelectAgreesWithScan(t *testing.T) {
	ops := []value.Op{value.OpEq, value.OpNe, value.OpLt, value.OpLe, value.OpGt, value.OpGe}
	t.Run("row", func(t *testing.T) {
		rel := buildRandom(t, []int{1, 2}, 11, 400)
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

// TestPropHashOnlyIndex repeats the oracle checks on the row store with
// hash-only indexes (positions 1 and 2): equality probes are served by the
// index, range selections fall back to a scan — SelectRange reports no
// ordered probe — and every answer equals the scan oracle's. Adding the
// ordered side later makes ranges index probes that stay exact under
// further churn.
func TestPropHashOnlyIndex(t *testing.T) {
	ops := []value.Op{value.OpEq, value.OpNe, value.OpLt, value.OpLe, value.OpGt, value.OpGe}
	t.Run("row", func(t *testing.T) {
		rel := buildRandomWith(t, []int{1, 2}, (*Relation).CreateHashIndex, 17, 400)
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

// TestStoreStats checks the typed Stats view.
func TestStoreStats(t *testing.T) {
	rel := buildRandom(t, []int{1}, 5, 100)
	st := rel.Stats()
	if st.Tuples != rel.Len() {
		t.Errorf("Tuples = %d, Len = %d", st.Tuples, rel.Len())
	}
	if len(st.Indexes) != 1 || st.Indexes[0].Pos != 1 || st.Indexes[0].Attr != "b" {
		t.Fatalf("Indexes = %+v", st.Indexes)
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
		t.Errorf("Distinct = %d, scan says %d", st.Indexes[0].Distinct, len(seen))
	}
}
