package prodsys

import (
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"sort"
	"testing"

	"prodsys/internal/trace"
	"prodsys/internal/workload"
)

// tracedPayrollRun loads the 50-rule payroll program under the given
// matcher, batch-asserts a deterministic insert-only stream while
// tracing, runs to quiescence, and returns the stopped tracer and the
// run result.
func tracedPayrollRun(t *testing.T, m Matcher, nOps int) (*System, *Tracer, Result) {
	t.Helper()
	sys, err := Load(workload.PayrollRules(50, false), Options{Matcher: m, Out: io.Discard})
	if err != nil {
		t.Fatalf("%s: load: %v", m, err)
	}
	tr := sys.Trace(TraceOptions{Capacity: 1 << 17})
	b := sys.Batch()
	for _, op := range workload.PayrollOps(1, nOps, 0) {
		vals := make([]any, len(op.Tuple))
		for i, v := range op.Tuple {
			vals[i] = v
		}
		b.Assert(op.Class, vals...)
	}
	if _, err := b.Commit(); err != nil {
		t.Fatalf("%s: commit: %v", m, err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatalf("%s: run: %v", m, err)
	}
	tr.Stop()
	return sys, tr, res
}

// firedKeys extracts the order-normalized rule_fire instantiation keys.
func firedKeys(tr *Tracer) []string {
	var keys []string
	for _, ev := range tr.Events() {
		if ev.Kind == trace.KindRuleFire {
			keys = append(keys, ev.Extra)
		}
	}
	sort.Strings(keys)
	return keys
}

// TestTraceEquivalenceAcrossMatchers pins the cross-matcher contract:
// on a confluent workload (the non-consuming payroll rules — fired
// actions make inert tuples) every matcher fires exactly the same set
// of instantiations, so the order-normalized rule_fire key sequences
// are identical. Riding along, each matcher's trace must satisfy the
// profile acceptance bar: non-zero match and fire timings for every
// rule, and a reconstructible Explanation for a fired rule.
func TestTraceEquivalenceAcrossMatchers(t *testing.T) {
	const nOps = 200
	var want []string
	for _, m := range Matchers() {
		_, tr, res := tracedPayrollRun(t, m, nOps)
		if res.Firings == 0 {
			t.Fatalf("%s: no firings", m)
		}
		if tr.Dropped() != 0 {
			t.Fatalf("%s: ring overflow (%d dropped); raise test capacity", m, tr.Dropped())
		}
		keys := firedKeys(tr)
		if len(keys) != res.Firings {
			t.Errorf("%s: %d rule_fire events, %d firings reported", m, len(keys), res.Firings)
		}
		if want == nil {
			want = keys
			continue
		}
		if !reflect.DeepEqual(keys, want) {
			t.Errorf("%s: fired instantiation set diverges from %s (%d vs %d keys)",
				m, Matchers()[0], len(keys), len(want))
		}
	}
}

// TestProfileCoversEveryRule is the acceptance check on the 50-rule
// benchmark, per matcher: the profile reports non-zero match time,
// firings and fire time for every rule, and Explain names the
// supporting condition elements of at least one fired instantiation.
func TestProfileCoversEveryRule(t *testing.T) {
	for _, c := range MatcherCases() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			_, tr, _ := tracedPayrollRun(t, c.Matcher, 200)
			p := tr.Profile()
			if len(p.Rules) != 50 {
				t.Fatalf("profile covers %d rules, want 50", len(p.Rules))
			}
			for _, r := range p.Rules {
				if r.Firings == 0 {
					t.Errorf("rule %s: no firings recorded", r.Name)
				}
				if r.FireTime <= 0 {
					t.Errorf("rule %s: zero fire time", r.Name)
				}
				if r.MatchTime <= 0 {
					t.Errorf("rule %s: zero match time", r.Name)
				}
			}
			// Explain a fired rule: both payroll CEs are positive, so
			// both must carry a supporting tuple.
			ex, err := tr.Explain(p.Rules[0].Name)
			if err != nil {
				t.Fatalf("explain: %v", err)
			}
			if len(ex.CEs) != 2 {
				t.Fatalf("explain: %d CEs, want 2", len(ex.CEs))
			}
			for _, ce := range ex.CEs {
				if ce.Class == "" {
					t.Errorf("explain: CE %d has no class", ce.Index)
				}
				if !ce.Negated && ce.TupleID == 0 {
					t.Errorf("explain: CE %d (%s) has no supporting tuple", ce.Index, ce.Class)
				}
			}
		})
	}
}

// TestConcurrentAbortAccounting pins the abort bugfix: on a contended
// workload (every rule consumes from one class, so all but one of a
// tuple's instantiations abort) the run result, the txn_aborts counter
// and the txn_abort event count must agree exactly.
func TestConcurrentAbortAccounting(t *testing.T) {
	sys, err := Load(workload.TaskRules(8, true), Options{Out: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	tr := sys.Trace(TraceOptions{})
	b := sys.Batch()
	for _, op := range workload.TaskFacts(8, true, 40) {
		vals := make([]any, len(op.Tuple))
		for i, v := range op.Tuple {
			vals[i] = v
		}
		b.Assert(op.Class, vals...)
	}
	if _, err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	before := sys.Metrics()
	res, err := sys.RunConcurrent()
	if err != nil {
		t.Fatal(err)
	}
	tr.Stop()
	if res.Aborts == 0 {
		t.Fatal("contended workload produced no aborts")
	}
	d := sys.Metrics().Delta(before)
	if int64(res.Aborts) != d.Execution.TxnAborts {
		t.Errorf("Result.Aborts = %d, txn_aborts counter delta = %d", res.Aborts, d.Execution.TxnAborts)
	}
	if got := tr.KindCount(trace.KindTxnAbort); int64(res.Aborts) != got {
		t.Errorf("Result.Aborts = %d, txn_abort events = %d", res.Aborts, got)
	}
	// Every abort event names its reason.
	for _, ev := range tr.Events() {
		if ev.Kind == trace.KindTxnAbort && ev.Extra == "" {
			t.Errorf("txn_abort event %d has no reason", ev.Seq)
		}
	}
}

// TestMetricsTypedSnapshot checks the typed sections against the raw
// counter map and the Delta arithmetic.
func TestMetricsTypedSnapshot(t *testing.T) {
	sys, err := Load("(literalize A x)\n", Options{Out: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	m0 := sys.Metrics()
	if _, err := sys.Assert("A", 1); err != nil {
		t.Fatal(err)
	}
	m1 := sys.Metrics()
	if m1.Storage.TuplesInserted != m1.Counters["tuples_inserted"] {
		t.Errorf("Storage.TuplesInserted = %d, raw counter = %d",
			m1.Storage.TuplesInserted, m1.Counters["tuples_inserted"])
	}
	if m1.Batch.Deltas != m1.Counters["batch_deltas"] {
		t.Errorf("Batch.Deltas = %d, raw counter = %d", m1.Batch.Deltas, m1.Counters["batch_deltas"])
	}
	d := m1.Delta(m0)
	if d.Storage.TuplesInserted != m1.Storage.TuplesInserted-m0.Storage.TuplesInserted {
		t.Errorf("Delta.Storage.TuplesInserted = %d", d.Storage.TuplesInserted)
	}
	if d.Storage.TuplesInserted < 1 {
		t.Errorf("Assert did not register in the delta: %+v", d.Storage)
	}
	if m1.Planner.PlansBuilt != m1.Counters["plans_built"] {
		t.Errorf("Planner.PlansBuilt = %d, raw counter = %d",
			m1.Planner.PlansBuilt, m1.Counters["plans_built"])
	}
}

// TestRunContextCancellation checks that a cancelled context stops
// both executors before any firing, and that the system stays usable.
func TestRunContextCancellation(t *testing.T) {
	src := "(literalize A x)\n(literalize Log x)\n(p note (A ^x <v>) --> (make Log ^x <v>))\n(A 1)\n"
	for _, run := range []struct {
		name string
		call func(*System, context.Context) (Result, error)
	}{
		{"serial", (*System).RunContext},
		{"concurrent", (*System).RunConcurrentContext},
	} {
		sys, err := Load(src, Options{Out: io.Discard})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		res, err := run.call(sys, ctx)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", run.name, err)
		}
		if res.Firings != 0 {
			t.Fatalf("%s: fired %d rules under a cancelled context", run.name, res.Firings)
		}
		// The cancelled run must leave the system consistent: a plain
		// run afterwards fires normally.
		res, err = sys.Run()
		if err != nil || res.Firings != 1 {
			t.Fatalf("%s: follow-up run: %d firings, err %v", run.name, res.Firings, err)
		}
	}
}

// TestCommitContextCancellation checks that a cancelled context stops a
// batch before it acquires locks or touches working memory.
func TestCommitContextCancellation(t *testing.T) {
	sys, err := Load("(literalize A x)\n", Options{Out: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sys.Batch().Assert("A", 1).CommitContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := len(sys.WMClass("A")); got != 0 {
		t.Fatalf("cancelled batch applied %d tuples", got)
	}
	// A fresh batch on a live context applies normally.
	if _, err := sys.Batch().Assert("A", 1).CommitContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := len(sys.WMClass("A")); got != 1 {
		t.Fatalf("follow-up batch applied %d tuples, want 1", got)
	}
}

// TestTraceExportRoundTrip smoke-tests both exporters on a real run's
// event stream.
func TestTraceExportRoundTrip(t *testing.T) {
	_, tr, _ := tracedPayrollRun(t, MatcherCore, 50)
	var jsonl, chrome countingWriter
	if err := tr.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteChromeTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	if jsonl.n == 0 || chrome.n == 0 {
		t.Fatalf("empty export: jsonl=%d chrome=%d bytes", jsonl.n, chrome.n)
	}
}

type countingWriter struct{ n int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// TestDisabledTracerKeepsRunsClean double-checks the no-op default: a
// system that never called Trace runs normally and reports a nil-safe,
// disabled tracer.
func TestDisabledTracerKeepsRunsClean(t *testing.T) {
	sys, err := Load(workload.PayrollRules(5, false), Options{Out: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Tracer().Enabled() {
		t.Fatal("tracer enabled before Trace was called")
	}
	for i := 0; i < 10; i++ {
		if _, err := sys.Assert("Emp", fmt.Sprintf("e%d", i), 30, 900*i, i%3); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if sys.Tracer().Len() != 0 || sys.Tracer().Total() != 0 {
		t.Fatalf("disabled tracer recorded events: len=%d total=%d", sys.Tracer().Len(), sys.Tracer().Total())
	}
}

// TestDeactivationOrderDeterministic retracts a tuple that supports many
// instantiations, on two fresh systems per matcher: the Deactivation
// events are identical run to run. (The conflict set retracts in Seq
// order; rete retracts token by token, newest first.)
func TestDeactivationOrderDeterministic(t *testing.T) {
	const src = `
(literalize Hub id)
(literalize Spoke hub n)
(p link (Hub ^id <h>) (Spoke ^hub <h> ^n <n>) --> (halt))
`
	const spokes = 64
	for _, m := range Matchers() {
		retract := func() []string {
			sys, err := Load(src, Options{Matcher: m, Out: io.Discard})
			if err != nil {
				t.Fatal(err)
			}
			hub, err := sys.Assert("Hub", 1)
			if err != nil {
				t.Fatal(err)
			}
			for n := 0; n < spokes; n++ {
				if _, err := sys.Assert("Spoke", 1, n); err != nil {
					t.Fatal(err)
				}
			}
			tr := sys.Trace(TraceOptions{Capacity: 1 << 12})
			if err := sys.Retract("Hub", hub); err != nil {
				t.Fatal(err)
			}
			tr.Stop()
			var keys []string
			for _, ev := range tr.Events() {
				if ev.Kind == trace.KindDeactivation {
					keys = append(keys, ev.Extra)
				}
			}
			if len(keys) != spokes {
				t.Fatalf("%s: %d deactivations, want %d", m, len(keys), spokes)
			}
			return keys
		}
		if a, b := retract(), retract(); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: deactivation order differs between identical runs:\n%v\n%v", m, a, b)
		}
	}
}

// TestMaintenanceNestsInItsUnit: under every matcher a batch's condition
// scans and joins lie inside its batch_apply span and a firing's inside
// its rule_fire, and every unit that writes WM encloses some of them.
func TestMaintenanceNestsInItsUnit(t *testing.T) {
	const src = `
(literalize A x)
(literalize B x)
(p mk (A ^x <x>) --> (make B ^x <x>))
(p seen (B ^x <x>) (A ^x <x>) --> (write seen <x>))
`
	for _, m := range Matchers() {
		sys, err := Load(src, Options{Matcher: m, Out: io.Discard})
		if err != nil {
			t.Fatal(err)
		}
		tr := sys.Trace(TraceOptions{Capacity: 1 << 12})
		if _, err = sys.Batch().Assert("A", 1).Assert("A", 2).Commit(); err == nil {
			_, err = sys.Run()
		}
		if err != nil {
			t.Fatal(err)
		}
		tr.Stop()
		var pending []trace.Event // match events since the last span
		for _, ev := range tr.Events() {
			switch ev.Kind {
			case trace.KindCondScan, trace.KindJoinEval:
				pending = append(pending, ev)
			case trace.KindBatchApply, trace.KindRuleFire:
				if len(pending) == 0 && (ev.Kind == trace.KindBatchApply || ev.Rule == "mk") {
					t.Errorf("%s: %s span (rule %q) encloses no match work", m, ev.Kind, ev.Rule)
				}
				for _, p := range pending {
					if p.At < ev.At || p.At+p.Dur > ev.At+ev.Dur {
						t.Errorf("%s: %s event (rule %q) lies outside its unit's %s span", m, p.Kind, p.Rule, ev.Kind)
					}
				}
				pending = pending[:0]
			}
		}
		if len(pending) != 0 {
			t.Errorf("%s: %d match events after the last span", m, len(pending))
		}
	}
}
