package crosscheck

import (
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"prodsys/internal/conflict"
	"prodsys/internal/joiner"
	"prodsys/internal/matchers"
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
		built, err := matchers.New("core", set, db, conflict.NewSet(set, nil), &metrics.Set{})
		if err != nil {
			t.Fatal(err)
		}
		coreM := built.(*recheck.Matcher)
		markerM := recheck.NewMarker(set, db, conflict.NewSet(set, nil), &metrics.Set{})
		matchers := []interface {
			InsertBatch(string, []relation.DeltaEntry) error
			DeleteBatch(string, []relation.DeltaEntry) error
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
				if err := m.InsertBatch(cls, []relation.DeltaEntry{{ID: id, Tuple: stored}}); err != nil {
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
				if err := m.DeleteBatch(lv.class, []relation.DeltaEntry{{ID: lv.id, Tuple: tup}}); err != nil {
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
// set must hold, rule by rule, exactly the instantiations a source-order
// join (joiner.Enumerate) derives over the surviving WM, compared by the
// tuple values they bind. The integrity audit's oracle is each matcher's
// own bulk path; this one shares no code with any matcher.
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
			sort.Strings(classes)
			for step := 0; step < 150; step++ {
				class := classes[r.Intn(len(classes))]
				if len(s.live[class]) > 0 && r.Intn(100) < 40 {
					ids := s.live[class]
					s.delete(class, ids[r.Intn(len(ids))])
				} else {
					s.insert(class, spec.classes[class](r)...)
				}
			}
			want := map[string][]string{}
			total := 0
			for _, rule := range s.set.Rules {
				joiner.Enumerate(s.db, rule, nil, nil, func(_ []relation.TupleID, tuples []relation.Tuple, _ rules.Bindings) {
					want[rule.Name] = append(want[rule.Name], renderTuples(tuples))
					total++
				})
			}
			if total == 0 {
				t.Fatal("the surviving WM derives no instantiation; the comparison is empty")
			}
			for _, m := range s.matchers {
				got := map[string][]string{}
				for _, in := range m.ConflictSet().Items() {
					got[in.Rule.Name] = append(got[in.Rule.Name], renderTuples(in.Tuples))
				}
				for _, rule := range s.set.Rules {
					g, w := got[rule.Name], want[rule.Name]
					sort.Strings(g)
					sort.Strings(w)
					if !slices.Equal(g, w) {
						t.Fatalf("%s: rule %s: churned conflict set %v, from-scratch join %v", m.Name(), rule.Name, g, w)
					}
				}
			}
		})
	}
}

// renderTuples names an instantiation by the values it binds: each
// positive condition element's tuple, "-" at a negated one.
func renderTuples(tuples []relation.Tuple) string {
	parts := make([]string, len(tuples))
	for i, tup := range tuples {
		parts[i] = "-"
		if tup != nil {
			parts[i] = tup.String()
		}
	}
	return strings.Join(parts, " ")
}
