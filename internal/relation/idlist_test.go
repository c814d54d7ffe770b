package relation

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"prodsys/internal/value"
)

// checkIDList compares l with the reference set want (ascending) and
// checks the compaction bound: at most twice as many entries as live
// IDs, plus one.
func checkIDList(t *testing.T, l *idList, want []TupleID) {
	t.Helper()
	if got := l.appendLive(nil); !slices.Equal(got, want) {
		t.Fatalf("live IDs = %v, want %v", got, want)
	}
	if l.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", l.Len(), len(want))
	}
	if !slices.IsSorted(l.ids) {
		t.Fatalf("entries not ascending: %v", l.ids)
	}
	if n := len(l.ids); n > 2*l.Len()+1 {
		t.Fatalf("%d entries for %d live IDs", n, l.Len())
	}
}

// TestIDListAgainstSortedSet drives an idList, lent and not, with
// random ascending appends, out-of-order inserts (restore), re-inserts
// of deleted IDs (rollback) and deletes at the front, middle and back,
// checking order, membership and the compaction bound against a
// reference sorted set after every step.
func TestIDListAgainstSortedSet(t *testing.T) {
	for _, lent := range []bool{false, true} {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			l := idList{lent: lent}
			var want, deleted []TupleID
			var next TupleID
			insert := func(id TupleID) {
				l.add(id)
				if i, found := slices.BinarySearch(want, id); !found {
					want = slices.Insert(want, i, id)
				}
			}
			for step := 0; step < 2000; step++ {
				switch op := rng.Intn(10); {
				case op < 4: // ascending append
					next += TupleID(1 + rng.Intn(3))
					insert(next)
				case op == 4 && next > 0: // restore: an ID below the last, often one never held
					insert(TupleID(rng.Int63n(int64(next)) + 1))
				case op == 5 && len(deleted) > 0: // rollback of a delete
					i := rng.Intn(len(deleted))
					insert(deleted[i])
					deleted = slices.Delete(deleted, i, i+1)
				case op == 6 && len(want) > 0: // re-add a live ID: no-op
					l.add(want[rng.Intn(len(want))])
				case len(want) > 0: // delete at the front, middle or back
					i := []int{0, rng.Intn(len(want)), len(want) - 1}[rng.Intn(3)]
					l.remove(want[i])
					deleted = append(deleted, want[i])
					want = slices.Delete(want, i, i+1)
					l.remove(deleted[len(deleted)-1]) // a second remove is a no-op
				}
				checkIDList(t, &l, want)
			}
		}
	}
}

// TestIDListSkew puts 100 000 IDs on one hash key and deletes them in
// random order: the bucket must stay within the compaction bound all
// the way down, and the key must go when its last ID does.
func TestIDListSkew(t *testing.T) {
	const n = 100_000
	ix := newAttrIndex()
	key := value.OfSym("hot")
	for id := TupleID(1); id <= n; id++ {
		ix.add(key, id)
	}
	order := rand.New(rand.NewSource(1)).Perm(n)
	for i, p := range order {
		ix.remove(value.OfString("hot"), TupleID(p+1))
		s, ok := ix.slot(key.Key())
		if live := n - i - 1; live == 0 {
			if ok || ix.distinct() != 0 {
				t.Fatal("emptied key still indexed")
			}
		} else if b := &ix.buckets[s]; !ok || b.Len() != live || len(b.ids) > 2*live+1 {
			t.Fatalf("after %d deletes: bucket has %d entries, %d live, want %d live", i+1, len(b.ids), b.Len(), live)
		}
	}
}

// TestScanDuringChurn runs Scans against concurrent inserts, deletes,
// rollback re-inserts and the scan order's compactions (run it under
// -race): every Scan must see ascending IDs and whole tuples.
func TestScanDuringChurn(t *testing.T) {
	r := New(MustSchema("R", "x"), nil)
	r.CreateHashIndex(0)
	for i := 0; i < 200; i++ {
		r.Insert(Tuple{value.OfInt(int64(i))})
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		oldest := TupleID(1)
		for i := 0; i < 2000; i++ {
			id, err := r.Insert(Tuple{value.OfInt(int64(i % 7))})
			if err != nil {
				t.Error(err)
				return
			}
			if i%10 == 0 { // rollback: the newest leaves and comes back
				tup, err := r.Delete(id)
				if err == nil {
					err = r.InsertAt(id, tup)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
			if i%2 == 1 { // FIFO: every second step retracts the two oldest
				for j := 0; j < 2; j++ {
					if _, err := r.Delete(oldest); err != nil {
						t.Error(err)
						return
					}
					oldest++
				}
			}
		}
	}()
	for i := 0; i < 200; i++ {
		var last TupleID
		r.Scan(func(id TupleID, tup Tuple) bool {
			if id <= last || len(tup) != 1 {
				t.Errorf("scan visited %d (%v) after %d", id, tup, last)
			}
			last = id
			return true
		})
	}
	wg.Wait()
	if got, want := r.Len(), 200; got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	var n int
	r.Scan(func(TupleID, Tuple) bool { n++; return true })
	if n != 200 || len(r.SelectEq(0, value.OfInt(3))) == 0 {
		t.Fatalf("final scan saw %d tuples", n)
	}
}
