package experiments

import (
	"fmt"
	"math/rand"
	"reflect"

	"prodsys/internal/joiner"
	"prodsys/internal/metrics"
	"prodsys/internal/ptree"
	"prodsys/internal/relation"
	"prodsys/internal/rules"
	"prodsys/internal/value"
	"prodsys/internal/view"
	"prodsys/internal/workload"
)

// negationChurnSrc exercises inverted-default semantics: rules fire on
// the absence of blockers, and blockers come and go.
const negationChurnSrc = `
(literalize Emp name dno)
(literalize Dept dno dname)
(p Orphan (Emp ^name <n> ^dno <d>) - (Dept ^dno <d>) --> (halt))
(p Staffed (Dept ^dno <d> ^dname <m>) (Emp ^dno <d>) --> (halt))
`

// E9Negation measures negated-condition maintenance under churn
// (§4.2.2: "negated conditions can be supported easily") and verifies
// all matchers agree at the end.
func E9Negation(ops int) Table {
	t := Table{
		ID:    "E9",
		Title: fmt.Sprintf("negated condition elements under churn (%d ops, 35%% deletes)", ops),
		Columns: []string{
			"matcher", "total ms", "instantiations", "retractions", "final conflict set",
		},
		Note: "every matcher must converge to the same conflict set; the cost difference is where the NOT EXISTS work happens",
	}
	gen := func() []workload.Op {
		r := rand.New(rand.NewSource(99))
		out := make([]workload.Op, 0, ops)
		live := 0
		for i := 0; i < ops; i++ {
			if live > 0 && r.Float64() < 0.35 {
				cls := "Emp"
				if r.Intn(2) == 0 {
					cls = "Dept"
				}
				out = append(out, workload.Op{Delete: true, Class: cls})
				live--
				continue
			}
			if r.Intn(2) == 0 {
				out = append(out, workload.Op{Class: "Dept", Tuple: relation.Tuple{
					value.OfInt(int64(r.Intn(6))), value.OfSym("d"),
				}})
			} else {
				out = append(out, workload.Op{Class: "Emp", Tuple: relation.Tuple{
					value.OfSym(fmt.Sprintf("e%d", i)), value.OfInt(int64(r.Intn(6))),
				}})
			}
			live++
		}
		return out
	}
	stream := gen()
	var reference []string
	agree := true
	for _, m := range []string{"rete", "requery", "core"} {
		s := mustSession(negationChurnSrc, m)
		d := timeIt(func() { s.apply(stream) })
		keys := s.matcher.ConflictSet().Keys()
		if reference == nil {
			reference = keys
		} else if !reflect.DeepEqual(reference, keys) {
			agree = false
		}
		sn := s.stats.Snapshot()
		t.Rows = append(t.Rows, []string{
			m,
			fmt.Sprintf("%.2f", float64(d.Microseconds())/1e3),
			fmt.Sprintf("%d", sn.Get(metrics.Instantiations)),
			fmt.Sprintf("%d", sn.Get(metrics.Retractions)),
			fmt.Sprintf("%d entries", len(keys)),
		})
	}
	if agree {
		t.Note += "; matchers AGREE on the final conflict set"
	} else {
		t.Note += "; MATCHERS DISAGREE — correctness bug"
	}
	return t
}

// E10ViewMaintenance compares incremental materialized-view maintenance
// (this paper's machinery, §2.3/§6) against recomputing the view on
// every update (the Buneman–Clemons baseline the paper cites as "very
// expensive").
func E10ViewMaintenance(updates int) Table {
	const viewSrc = `
(literalize Emp name salary dno)
(literalize Dept dno dname)
(p ToyStaff
    (Emp ^name <n> ^salary <s> ^dno <d>)
    (Dept ^dno <d> ^dname Toy)
  -->)
`
	t := Table{
		ID:    "E10",
		Title: fmt.Sprintf("materialized view over Emp⋈Dept, %d updates", updates),
		Columns: []string{
			"strategy", "total ms", "tuples scanned", "final view rows",
		},
		Note: "incremental maintenance touches COND relations per update; recomputation joins the base relations after every update",
	}
	makeOps := func() []workload.Op {
		r := rand.New(rand.NewSource(5))
		ops := make([]workload.Op, 0, updates)
		for d := 0; d < 10; d++ {
			name := "Toy"
			if d%2 == 1 {
				name = "Shoe"
			}
			ops = append(ops, workload.Op{Class: "Dept", Tuple: relation.Tuple{
				value.OfInt(int64(d)), value.OfSym(name),
			}})
		}
		live := 0
		for i := len(ops); i < updates; i++ {
			if live > 0 && r.Float64() < 0.3 {
				ops = append(ops, workload.Op{Delete: true, Class: "Emp"})
				live--
				continue
			}
			ops = append(ops, workload.Op{Class: "Emp", Tuple: relation.Tuple{
				value.OfSym(fmt.Sprintf("e%d", i)), value.OfInt(int64(r.Intn(5000))), value.OfInt(int64(r.Intn(10))),
			}})
			live++
		}
		return ops
	}

	// Incremental: the view manager over the matching-pattern matcher.
	{
		set, _, err := rules.CompileSource(viewSrc)
		if err != nil {
			panic(err)
		}
		stats := &metrics.Set{}
		db := relation.NewDB(stats)
		if err := rules.BuildDB(set, db); err != nil {
			panic(err)
		}
		mgr, err := view.NewManager(viewSrc, db, stats)
		if err != nil {
			panic(err)
		}
		live := map[string][]relation.TupleID{}
		d := timeIt(func() {
			for _, op := range makeOps() {
				if op.Delete {
					ids := live[op.Class]
					if len(ids) == 0 {
						continue
					}
					id := ids[0]
					live[op.Class] = ids[1:]
					rel, err := db.Lookup(op.Class)
					if err != nil {
						panic(err)
					}
					tup, _ := rel.Delete(id)
					mgr.Delete(op.Class, id, tup)
					continue
				}
				rel, err := db.Lookup(op.Class)
				if err != nil {
					panic(err)
				}
				id, _ := rel.Insert(op.Tuple)
				tup, _ := rel.Get(id)
				mgr.Insert(op.Class, id, tup)
				live[op.Class] = append(live[op.Class], id)
			}
		})
		v, _ := mgr.View("ToyStaff")
		t.Rows = append(t.Rows, []string{
			"incremental (matching patterns)",
			fmt.Sprintf("%.2f", float64(d.Microseconds())/1e3),
			fmt.Sprintf("%d", stats.Get(metrics.TuplesScanned)),
			fmt.Sprintf("%d", v.Len()),
		})
	}

	// Recompute: evaluate the qualification from scratch after every
	// update.
	{
		set, _, err := rules.CompileSource(viewSrc)
		if err != nil {
			panic(err)
		}
		stats := &metrics.Set{}
		db := relation.NewDB(stats)
		if err := rules.BuildDB(set, db); err != nil {
			panic(err)
		}
		r := set.Rules[0]
		live := map[string][]relation.TupleID{}
		rowCount := 0
		d := timeIt(func() {
			for _, op := range makeOps() {
				if op.Delete {
					ids := live[op.Class]
					if len(ids) == 0 {
						continue
					}
					id := ids[0]
					live[op.Class] = ids[1:]
					rel, err := db.Lookup(op.Class)
					if err != nil {
						panic(err)
					}
					rel.Delete(id)
				} else {
					rel, err := db.Lookup(op.Class)
					if err != nil {
						panic(err)
					}
					id, _ := rel.Insert(op.Tuple)
					live[op.Class] = append(live[op.Class], id)
				}
				rowCount = 0
				joiner.Enumerate(db, r, nil, stats, func([]relation.TupleID, []relation.Tuple, rules.Bindings) {
					rowCount++
				})
			}
		})
		t.Rows = append(t.Rows, []string{
			"recompute per update",
			fmt.Sprintf("%.2f", float64(d.Microseconds())/1e3),
			fmt.Sprintf("%d", stats.Get(metrics.TuplesScanned)),
			fmt.Sprintf("%d", rowCount),
		})
	}
	return t
}

// E11RuleQuery compares the Predicate Indexing R-tree against a linear
// scan of the COND relation for rulebase queries and insertion-time
// candidate search (§4.2.3: R-trees on COND relations "help in speeding
// up this process").
func E11RuleQuery(conditions, probes int) Table {
	t := Table{
		ID:    "E11",
		Title: fmt.Sprintf("condition search: R-tree vs linear scan (%d conditions, %d probes)", conditions, probes),
		Columns: []string{
			"method", "total ms", "avg candidates", "avg checked",
		},
		Note: "the R-tree inspects only subtrees whose bounding rectangles admit the probe; the linear scan checks every condition",
	}
	// Build a rule set with `conditions` disjoint salary-band rules.
	src := workload.OverlapRules(conditions, 0)
	set, _, err := rules.CompileSource(src)
	if err != nil {
		panic(err)
	}
	ix := ptree.NewIndex(set, &metrics.Set{})
	r := rand.New(rand.NewSource(3))
	probeTuples := make([]relation.Tuple, probes)
	for i := range probeTuples {
		probeTuples[i] = relation.Tuple{
			value.OfSym("e"), value.OfInt(int64(r.Intn(10000))), value.OfInt(int64(r.Intn(5))),
		}
	}

	var treeCands int
	treeTime := timeIt(func() {
		for _, tup := range probeTuples {
			treeCands += len(ix.CandidatesFor("Emp", tup))
		}
	})

	var scanCands, scanChecked int
	scanTime := timeIt(func() {
		for _, tup := range probeTuples {
			for _, ce := range set.ByClass["Emp"] {
				scanChecked++
				if ce.MatchAlpha(tup) {
					scanCands++
				}
			}
		}
	})

	t.Rows = append(t.Rows, []string{
		"R-tree (predicate index)",
		fmt.Sprintf("%.2f", float64(treeTime.Microseconds())/1e3),
		fmt.Sprintf("%.2f", float64(treeCands)/float64(probes)),
		"pruned subtrees only",
	})
	t.Rows = append(t.Rows, []string{
		"linear COND scan",
		fmt.Sprintf("%.2f", float64(scanTime.Microseconds())/1e3),
		fmt.Sprintf("%.2f", float64(scanCands)/float64(probes)),
		fmt.Sprintf("%.0f per probe", float64(scanChecked)/float64(probes)),
	})
	return t
}
