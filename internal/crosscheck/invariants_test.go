package crosscheck

import (
	"math/rand"
	"testing"

	"prodsys/internal/conflict"
	"prodsys/internal/core"
	"prodsys/internal/metrics"
	"prodsys/internal/recheck"
	"prodsys/internal/relation"
	"prodsys/internal/rete"
	"prodsys/internal/rules"
	"prodsys/internal/value"
)

// TestStorageDrainsToZero: after inserting a random stream and then
// deleting every live tuple, each matcher's auxiliary storage must be
// empty — tokens, matching patterns, and rule markers all drain.
func TestStorageDrainsToZero(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		r := rand.New(rand.NewSource(seed))
		set, _, err := rules.CompileSource(threeWaySrc)
		if err != nil {
			t.Fatal(err)
		}
		db := relation.NewDB(nil)
		if err := rules.BuildDB(set, db); err != nil {
			t.Fatal(err)
		}
		reteM := rete.New(set, conflict.NewSet(set, nil), &metrics.Set{})
		coreM := core.New(set, db, conflict.NewSet(set, nil), &metrics.Set{})
		markerM := recheck.NewMarker(set, db, conflict.NewSet(set, nil), &metrics.Set{})
		matchers := []interface {
			Insert(string, relation.TupleID, relation.Tuple) error
			Delete(string, relation.TupleID, relation.Tuple) error
		}{reteM, coreM, markerM}

		classes := []string{"A", "B", "C"}
		gen := map[string]func() relation.Tuple{
			"A": func() relation.Tuple {
				return relation.Tuple{value.OfInt(int64(r.Intn(3))), value.OfSym("a"), value.OfInt(int64(r.Intn(3)))}
			},
			"B": func() relation.Tuple {
				return relation.Tuple{value.OfInt(int64(r.Intn(3))), value.OfInt(int64(r.Intn(3))), value.OfSym("b")}
			},
			"C": func() relation.Tuple {
				return relation.Tuple{value.OfSym("c"), value.OfInt(int64(r.Intn(3))), value.OfInt(int64(r.Intn(3)))}
			},
		}
		type live struct {
			class string
			id    relation.TupleID
		}
		var all []live
		for i := 0; i < 60; i++ {
			cls := classes[r.Intn(3)]
			tup := gen[cls]()
			id, err := db.MustGet(cls).Insert(tup)
			if err != nil {
				t.Fatal(err)
			}
			stored, _ := db.MustGet(cls).Get(id)
			for _, m := range matchers {
				if err := m.Insert(cls, id, stored); err != nil {
					t.Fatal(err)
				}
			}
			all = append(all, live{cls, id})
		}
		// Delete everything in a shuffled order.
		r.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		for _, lv := range all {
			tup, err := db.MustGet(lv.class).Delete(lv.id)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range matchers {
				if err := m.Delete(lv.class, lv.id, tup); err != nil {
					t.Fatal(err)
				}
			}
		}
		if got := reteM.TokenCount(); got != 0 {
			t.Fatalf("seed %d: rete tokens remaining = %d", seed, got)
		}
		if got := coreM.PatternCount(); got != 0 {
			t.Fatalf("seed %d: core patterns remaining = %d", seed, got)
		}
		if got := markerM.MarkCount(); got != 0 {
			t.Fatalf("seed %d: rule markers remaining = %d", seed, got)
		}
		if got := reteM.ConflictSet().Len() + coreM.ConflictSet().Len() + markerM.ConflictSet().Len(); got != 0 {
			t.Fatalf("seed %d: conflict sets not empty: %d", seed, got)
		}
	}
}

// TestConflictSetMatchesFromScratch: after churn, each matcher's conflict
// set must equal a from-scratch recomputation over the surviving WM.
func TestConflictSetMatchesFromScratch(t *testing.T) {
	for _, spec := range specs {
		spec := spec
		t.Run(spec.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(77))
			s := newSession(t, spec.src)
			classes := make([]string, 0, len(spec.classes))
			for c := range spec.classes {
				classes = append(classes, c)
			}
			for i := 1; i < len(classes); i++ {
				for j := i; j > 0 && classes[j] < classes[j-1]; j-- {
					classes[j], classes[j-1] = classes[j-1], classes[j]
				}
			}
			for step := 0; step < 150; step++ {
				class := classes[r.Intn(len(classes))]
				if len(s.live[class]) > 0 && r.Intn(100) < 40 {
					ids := s.live[class]
					s.delete(class, ids[r.Intn(len(ids))])
				} else {
					s.insert(class, spec.classes[class](r)...)
				}
			}
			// From-scratch oracle over the surviving WM.
			fresh := newSession(t, spec.src)
			for _, cls := range classes {
				s.db.MustGet(cls).Scan(func(_ relation.TupleID, tup relation.Tuple) bool {
					// Re-insert preserving values (ids differ; compare sizes
					// and per-rule instantiation counts instead of keys).
					fresh.insert(cls, tup...)
					return true
				})
			}
			for i, m := range s.matchers {
				got := m.ConflictSet().Len()
				want := fresh.matchers[i].ConflictSet().Len()
				if got != want {
					t.Fatalf("%s: churned conflict set %d entries, from-scratch %d",
						m.Name(), got, want)
				}
			}
		})
	}
}
