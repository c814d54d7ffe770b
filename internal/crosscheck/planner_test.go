package crosscheck

import (
	"math/rand"
	"reflect"
	"testing"

	"prodsys/internal/joiner"
	"prodsys/internal/metrics"
	"prodsys/internal/workload"
)

// newPlannedSession builds a session and hands a cost-based planner to
// every matcher. Rete never calls the joiner and ignores it — it stays
// in the lockstep comparison as an additional oracle.
func newPlannedSession(t *testing.T, src string) *session {
	t.Helper()
	s := newSession(t, src)
	pl := joiner.NewPlanner(s.db, s.stats)
	for _, m := range s.matchers {
		m.SetPlanner(pl)
	}
	return s
}

// chainOps builds an op stream inserting `chains` complete instances of
// the n-way chain join, link classes shuffled so deltas arrive at every
// join position, with deleteFrac of additional delete ops mixed in.
func chainOps(seed int64, chains, chainLen int, deleteFrac float64) []workload.Op {
	rng := rand.New(rand.NewSource(seed))
	var ops []workload.Op
	for c := 0; c < chains; c++ {
		for i := 0; i < chainLen; i++ {
			class, tup := workload.ChainLink(c, i)
			ops = append(ops, workload.Op{Class: class, Tuple: tup})
			if rng.Float64() < deleteFrac {
				delClass, _ := workload.ChainLink(c, rng.Intn(chainLen))
				ops = append(ops, workload.Op{Delete: true, Class: delClass})
			}
		}
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// runPlannerCrosscheck drives one planned and one fixed-order session
// over the identical op stream in lockstep. At every checkpoint the two
// conflict sets must be byte-identical (the planner may reorder join
// evaluation, never change the derived set), every matcher inside each
// session must agree with its requery oracle, and the planned session
// must pass the full integrity audit.
func runPlannerCrosscheck(t *testing.T, src string, ops []workload.Op, checkEvery int) {
	planned := newPlannedSession(t, src)
	fixed := newSession(t, src)
	for i := 0; i < len(ops); i += checkEvery {
		j := i + checkEvery
		if j > len(ops) {
			j = len(ops)
		}
		planned.apply(ops[i:j])
		fixed.apply(ops[i:j])
		got := planned.agree("planned")
		want := fixed.agree("fixed")
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("ops[0:%d]: planned conflict set diverges from fixed-order oracle:\nplanned: %v\nfixed:   %v", j, got, want)
		}
		planned.auditAll("planned")
	}
	if got := planned.stats.Get(metrics.PlanCacheHits); got == 0 {
		t.Error("planned session recorded no plan cache hits")
	}
}

// TestPlannerCrosscheckPayroll checks the planner property on the
// randomized payroll workload (two-way joins, churn): every matcher
// with cost-based planning attached produce exactly the conflict sets of
// the fixed-order evaluation, audited clean at every checkpoint.
func TestPlannerCrosscheckPayroll(t *testing.T) {
	src := workload.PayrollRules(20, false)
	ops := workload.PayrollOps(17, 400, 0.3)
	runPlannerCrosscheck(t, src, ops, 100)
}

// TestPlannerCrosscheckChain repeats the property on the Figure 1 chain
// workload, where join order matters most: a 5-way chain join with
// shuffled link arrival and deletes mixed in.
func TestPlannerCrosscheckChain(t *testing.T) {
	src := workload.ChainRules(5)
	ops := chainOps(23, 24, 5, 0.2)
	runPlannerCrosscheck(t, src, ops, 40)
}
