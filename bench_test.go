// Benchmarks: one testing.B entry per experiment of the DESIGN.md index
// (E1–E4, E7, E9–E11 are timing experiments; E6 and E8 are exhaustive
// correctness checks exposed as tests; the figures are structural and
// regenerated by cmd/psbench). Run with:
//
//	go test -bench=. -benchmem .
package prodsys_test

import (
	"io"
	"testing"

	"prodsys"
	"prodsys/internal/conflict"
	"prodsys/internal/core"
	"prodsys/internal/engine"
	"prodsys/internal/experiments"
	"prodsys/internal/joiner"
	"prodsys/internal/match"
	"prodsys/internal/matchers"
	"prodsys/internal/metrics"
	"prodsys/internal/ptree"
	"prodsys/internal/relation"
	"prodsys/internal/rules"
	"prodsys/internal/value"
	"prodsys/internal/view"
	"prodsys/internal/workload"
)

// newMatcher builds a matcher bank entry over a fresh WM catalog.
func newMatcher(b *testing.B, src, name string) (*relation.DB, match.Matcher, *metrics.Set) {
	b.Helper()
	set, _, err := rules.CompileSource(src)
	if err != nil {
		b.Fatal(err)
	}
	stats := &metrics.Set{}
	db := relation.NewDB(stats)
	if err := rules.BuildDB(set, db); err != nil {
		b.Fatal(err)
	}
	m, err := matchers.New(name, set, db, conflict.NewSet(set, stats), stats)
	if err != nil {
		b.Fatal(err)
	}
	return db, m, stats
}

func insertNotify(b *testing.B, db *relation.DB, m match.Matcher, class string, t relation.Tuple) relation.TupleID {
	b.Helper()
	rel := db.MustGet(class)
	id, err := rel.Insert(t)
	if err != nil {
		b.Fatal(err)
	}
	stored, _ := rel.Get(id)
	if err := m.Insert(class, id, stored); err != nil {
		b.Fatal(err)
	}
	return id
}

func deleteNotify(b *testing.B, db *relation.DB, m match.Matcher, class string, id relation.TupleID) {
	b.Helper()
	t, err := db.MustGet(class).Delete(id)
	if err != nil {
		b.Fatal(err)
	}
	if err := m.Delete(class, id, t); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkE1PropagationDepth times the chain-completion probe of E1:
// delete and re-insert the first link of a complete C1∧…∧Cn chain.
func BenchmarkE1PropagationDepth(b *testing.B) {
	for _, n := range []int{4, 16} {
		src := workload.ChainRules(n)
		for _, name := range []string{"rete", "core"} {
			b.Run(benchName(name, "n", n), func(b *testing.B) {
				db, m, _ := newMatcher(b, src, name)
				for i := 0; i < n; i++ {
					cls, tup := workload.ChainLink(0, i)
					insertNotify(b, db, m, cls, tup)
				}
				cls, tup := workload.ChainLink(0, 0)
				var last relation.TupleID = 1
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					deleteNotify(b, db, m, cls, last)
					last = insertNotify(b, db, m, cls, tup)
				}
			})
		}
	}
}

// BenchmarkE2MatchTime times the payroll update stream per matcher.
func BenchmarkE2MatchTime(b *testing.B) {
	const ruleCount = 50
	src := workload.PayrollRules(ruleCount, false)
	ops := workload.PayrollOps(42, 500, 0.25)
	for _, name := range []string{"rete", "requery", "core", "marker", "ptree"} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				db, m, _ := newMatcher(b, src, name)
				live := map[string][]relation.TupleID{}
				for _, op := range ops {
					if op.Delete {
						ids := live[op.Class]
						if len(ids) == 0 {
							continue
						}
						deleteNotify(b, db, m, op.Class, ids[0])
						live[op.Class] = ids[1:]
						continue
					}
					id := insertNotify(b, db, m, op.Class, op.Tuple)
					live[op.Class] = append(live[op.Class], id)
				}
			}
		})
	}
}

// BenchmarkE3Space reports allocations per matcher on an insert-only
// stream (run with -benchmem; the allocated bytes proxy the stored
// intermediate state of E3).
func BenchmarkE3Space(b *testing.B) {
	src := workload.PayrollRules(20, false)
	ops := workload.PayrollOps(7, 400, 0)
	for _, name := range []string{"requery", "marker", "rete", "core"} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				db, m, _ := newMatcher(b, src, name)
				for _, op := range ops {
					insertNotify(b, db, m, op.Class, op.Tuple)
				}
			}
		})
	}
}

// BenchmarkE4FalseDrops times the overlap workload on marker vs core.
func BenchmarkE4FalseDrops(b *testing.B) {
	for _, overlap := range []float64{0, 0.9} {
		src := workload.OverlapRules(20, overlap)
		ops := workload.OverlapOps(11, 300)
		for _, name := range []string{"marker", "core"} {
			b.Run(benchName(name, "overlap", int(overlap*100)), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					db, m, _ := newMatcher(b, src, name)
					for _, op := range ops {
						insertNotify(b, db, m, op.Class, op.Tuple)
					}
				}
			})
		}
	}
}

// BenchmarkE7ConcurrentThroughput times the transactional executor as
// the worker pool grows.
func BenchmarkE7ConcurrentThroughput(b *testing.B) {
	const kinds, tasks = 8, 64
	src := workload.TaskRules(kinds, false)
	facts := workload.TaskFacts(kinds, false, tasks)
	for _, workers := range []int{1, 4, 8} {
		b.Run(benchName("workers", "", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				set, _, err := rules.CompileSource(src)
				if err != nil {
					b.Fatal(err)
				}
				stats := &metrics.Set{}
				db := relation.NewDB(stats)
				if err := rules.BuildDB(set, db); err != nil {
					b.Fatal(err)
				}
				m := core.New(set, db, conflict.NewSet(set, stats), stats)
				e := engine.New(set, db, m, stats, engine.Config{Workers: workers, Out: io.Discard})
				for _, op := range facts {
					if _, err := e.Assert(op.Class, op.Tuple); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				if _, err := e.RunConcurrent(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE9Negation times negated-condition churn per matcher.
func BenchmarkE9Negation(b *testing.B) {
	src := `
(literalize Emp name dno)
(literalize Dept dno dname)
(p Orphan (Emp ^name <n> ^dno <d>) - (Dept ^dno <d>) --> (halt))
(p Staffed (Dept ^dno <d> ^dname <m>) (Emp ^dno <d>) --> (halt))
`
	for _, name := range []string{"rete", "requery", "core"} {
		b.Run(name, func(b *testing.B) {
			db, m, _ := newMatcher(b, src, name)
			var deptID relation.TupleID
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// One churn round: employee in, blocker in, blocker out.
				eid := insertNotify(b, db, m, "Emp", relation.Tuple{
					value.OfSym("e"), value.OfInt(int64(i % 5)),
				})
				deptID = insertNotify(b, db, m, "Dept", relation.Tuple{
					value.OfInt(int64(i % 5)), value.OfSym("d"),
				})
				deleteNotify(b, db, m, "Dept", deptID)
				deleteNotify(b, db, m, "Emp", eid)
			}
		})
	}
}

// BenchmarkE10ViewMaintenance times one WM update under incremental view
// maintenance vs full view recomputation.
func BenchmarkE10ViewMaintenance(b *testing.B) {
	const viewSrc = `
(literalize Emp name salary dno)
(literalize Dept dno dname)
(p ToyStaff (Emp ^name <n> ^salary <s> ^dno <d>) (Dept ^dno <d> ^dname Toy) -->)
`
	setup := func(b *testing.B) (*relation.DB, *metrics.Set) {
		set, _, err := rules.CompileSource(viewSrc)
		if err != nil {
			b.Fatal(err)
		}
		stats := &metrics.Set{}
		db := relation.NewDB(stats)
		if err := rules.BuildDB(set, db); err != nil {
			b.Fatal(err)
		}
		dept := db.MustGet("Dept")
		for d := 0; d < 10; d++ {
			name := "Toy"
			if d%2 == 1 {
				name = "Shoe"
			}
			dept.Insert(relation.Tuple{value.OfInt(int64(d)), value.OfSym(name)})
		}
		emp := db.MustGet("Emp")
		for i := 0; i < 200; i++ {
			emp.Insert(relation.Tuple{value.OfSym("e"), value.OfInt(int64(i)), value.OfInt(int64(i % 10))})
		}
		return db, stats
	}
	b.Run("incremental", func(b *testing.B) {
		db, stats := setup(b)
		mgr, err := view.NewManager(viewSrc, db, stats)
		if err != nil {
			b.Fatal(err)
		}
		emp := db.MustGet("Emp")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			id, _ := emp.Insert(relation.Tuple{value.OfSym("x"), value.OfInt(1), value.OfInt(int64(i % 10))})
			tup, _ := emp.Get(id)
			mgr.Insert("Emp", id, tup)
			emp.Delete(id)
			mgr.Delete("Emp", id, tup)
		}
	})
	b.Run("recompute", func(b *testing.B) {
		db, stats := setup(b)
		set, _, _ := rules.CompileSource(viewSrc)
		r := set.Rules[0]
		emp := db.MustGet("Emp")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			id, _ := emp.Insert(relation.Tuple{value.OfSym("x"), value.OfInt(1), value.OfInt(int64(i % 10))})
			joiner.Enumerate(db, r, nil, stats, func([]relation.TupleID, []relation.Tuple, rules.Bindings) {})
			emp.Delete(id)
			joiner.Enumerate(db, r, nil, stats, func([]relation.TupleID, []relation.Tuple, rules.Bindings) {})
		}
	})
}

// BenchmarkE11RuleQuery times condition search: R-tree vs linear scan.
func BenchmarkE11RuleQuery(b *testing.B) {
	const conditions = 500
	src := workload.OverlapRules(conditions, 0)
	set, _, err := rules.CompileSource(src)
	if err != nil {
		b.Fatal(err)
	}
	probe := relation.Tuple{value.OfSym("e"), value.OfInt(4321), value.OfInt(2)}
	b.Run("rtree", func(b *testing.B) {
		ix := ptree.NewIndex(set, nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ix.CandidatesFor("Emp", probe)
		}
	})
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, ce := range set.ByClass["Emp"] {
				ce.MatchAlpha(probe)
			}
		}
	})
}

// BenchmarkBatchAssert compares tuple-at-a-time assertion against the
// set-oriented batch path on an insert-only payroll stream: one
// engine.Assert per tuple vs a single engine.ApplyDelta carrying the
// whole stream (the set-at-a-time maintenance of §4.2/§5.1).
func BenchmarkBatchAssert(b *testing.B) {
	const ruleCount, tuples = 50, 1500
	src := workload.PayrollRules(ruleCount, false)
	ops := workload.PayrollOps(7, tuples, 0)
	newEngineIndexed := func(b *testing.B, name string, indexed bool) *engine.Engine {
		set, _, err := rules.CompileSource(src)
		if err != nil {
			b.Fatal(err)
		}
		stats := &metrics.Set{}
		db := relation.NewDB(stats)
		if err := rules.BuildCatalog(set, db); err != nil {
			b.Fatal(err)
		}
		if indexed {
			if err := rules.BuildIndexes(set, db); err != nil {
				b.Fatal(err)
			}
		}
		m, err := matchers.New(name, set, db, conflict.NewSet(set, stats), stats)
		if err != nil {
			b.Fatal(err)
		}
		return engine.New(set, db, m, stats, engine.Config{Out: io.Discard})
	}
	newEngine := func(b *testing.B, name string) *engine.Engine {
		return newEngineIndexed(b, name, true)
	}
	for _, name := range []string{"core", "requery", "rete"} {
		b.Run(name+"/per-tuple", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				e := newEngine(b, name)
				b.StartTimer()
				for _, op := range ops {
					if _, err := e.Assert(op.Class, op.Tuple); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(name+"/batch", func(b *testing.B) {
			delta := make([]engine.DeltaOp, len(ops))
			for i, op := range ops {
				delta[i] = engine.DeltaOp{Class: op.Class, Tuple: op.Tuple}
			}
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				e := newEngine(b, name)
				b.StartTimer()
				if _, err := e.ApplyDelta(delta); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// Scan-only variant: the same batch through a catalog without
	// secondary indexes, isolating what the indexes contribute to the
	// batch path.
	b.Run("core/batch-row-noindex", func(b *testing.B) {
		delta := make([]engine.DeltaOp, len(ops))
		for i, op := range ops {
			delta[i] = engine.DeltaOp{Class: op.Class, Tuple: op.Tuple}
		}
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			e := newEngineIndexed(b, "core", false)
			b.StartTimer()
			if _, err := e.ApplyDelta(delta); err != nil {
				b.Fatal(err)
			}
		}
	})
	// Planner variants: the Figure 1 chain workload, where join order
	// dominates. Fixed order evaluates each delta's rule left-to-right
	// (scanning K0 for every arriving link); the cost-based planner
	// starts from the pinned delta tuple and probes outward through the
	// shared-variable indexes.
	const chainLen, chains = 6, 120
	chainSrc := workload.ChainRules(chainLen)
	var chainOps []workload.Op
	for c := 0; c < chains; c++ {
		for i := 0; i < chainLen; i++ {
			class, tup := workload.ChainLink(c, i)
			chainOps = append(chainOps, workload.Op{Class: class, Tuple: tup})
		}
	}
	newChainEngine := func(b *testing.B, name string, planned bool) *engine.Engine {
		set, _, err := rules.CompileSource(chainSrc)
		if err != nil {
			b.Fatal(err)
		}
		stats := &metrics.Set{}
		db := relation.NewDB(stats)
		if err := rules.BuildDB(set, db); err != nil {
			b.Fatal(err)
		}
		m, err := matchers.New(name, set, db, conflict.NewSet(set, stats), stats)
		if err != nil {
			b.Fatal(err)
		}
		if planned {
			m.SetPlanner(joiner.NewPlanner(db, stats))
		}
		return engine.New(set, db, m, stats, engine.Config{Out: io.Discard})
	}
	for _, name := range []string{"core", "requery"} {
		for _, planned := range []bool{false, true} {
			variant := "fixed"
			if planned {
				variant = "planned"
			}
			b.Run("chain-"+name+"/"+variant, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					e := newChainEngine(b, name, planned)
					b.StartTimer()
					for _, op := range chainOps {
						if _, err := e.Assert(op.Class, op.Tuple); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	}
}

// BenchmarkSerialEngine times whole recognize-act cycles end to end
// through the public API (the manufacturing workload).
func BenchmarkSerialEngine(b *testing.B) {
	src := workload.ManufacturingRules()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys, err := prodsys.Load(src, prodsys.Options{Out: io.Discard})
		if err != nil {
			b.Fatal(err)
		}
		for _, op := range workload.ManufacturingFacts(20) {
			vals := make([]any, len(op.Tuple))
			for j, v := range op.Tuple {
				vals[j] = v
			}
			if _, err := sys.Assert(op.Class, vals...); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if _, err := sys.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestE6SerializabilityEquivalence is the exhaustive §5.2 check exposed
// at the repository root per the experiment index.
func TestE6SerializabilityEquivalence(t *testing.T) {
	tab := experiments.E6Serializability(4)
	for _, row := range tab.Rows {
		if row[4] != "yes" {
			t.Fatalf("serializability violated: %v", row)
		}
	}
}

// TestE8ScheduleCountIndex verifies the schedule-space table at the root.
func TestE8ScheduleCountIndex(t *testing.T) {
	tab := experiments.E8ScheduleCount()
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

// benchName formats sub-benchmark names.
func benchName(a, k string, v int) string {
	if k == "" {
		return a + "-" + itoa(v)
	}
	return a + "-" + k + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
