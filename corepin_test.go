package prodsys

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"testing"

	"prodsys/internal/lang"
	"prodsys/internal/relation"
	"prodsys/internal/rules"
	"prodsys/internal/trace"
)

// This file pins what the default matcher, core, does beyond its
// conflict set: the order its FIFO agenda fires in, and the match work
// its trace attributes to each rule. Both goldens were recorded once and
// are never regenerated; a change to either is a change of behaviour.

const (
	firingOrderGolden  = "testdata/core_firing_order.golden"
	traceProfileGolden = "testdata/core_trace_profile.golden"
)

// firingOrderSrc holds two joins over one class pair in opposite CE
// order, a one-CE rule, an equality negation, a three-CE join and a rule
// whose removal of a blocker unblocks the negation during the run.
const firingOrderSrc = `
(literalize A k x)
(literalize B k y)
(literalize C k)
(p j1 (A ^k <k> ^x <x>) (B ^k <k> ^y <y>) --> (write j1 <k> <x> <y>))
(p j2 (B ^k <k> ^y <y>) (A ^k <k>) --> (write j2 <k> <y>))
(p s1 (A ^k <k> ^x <x>) --> (write s1 <k> <x>))
(p n1 (A ^k <k> ^x <x>) - (C ^k <k>) --> (write n1 <k> <x>))
(p t3 (A ^k <k> ^x <x>) (B ^k <k> ^y <y>) (C ^k <k>) --> (write t3 <k> <x> <y>))
(p unblock (C ^k 0) --> (remove 1))
`

// firingOrderBatches are the commits of the firing-order run: six A,
// then four B, then two C. With dup, the C batch carries a second C(1):
// two entries that agree on every attribute t3 reads, each completing
// four t3 matches, so the agenda shows whether a batch's candidates are
// verified entry by entry or replayed per match.
func firingOrderBatches(dup bool) [][]snapOp {
	cs := []snapOp{snapAssert("C", 0), snapAssert("C", 1)}
	if dup {
		cs = append(cs, snapAssert("C", 1))
	}
	return [][]snapOp{
		{snapAssert("A", 0, 1), snapAssert("A", 1, 2), snapAssert("A", 2, 3), snapAssert("A", 0, 4), snapAssert("A", 1, 5), snapAssert("A", 3, 6)},
		{snapAssert("B", 1, 7), snapAssert("B", 0, 8), snapAssert("B", 2, 9), snapAssert("B", 1, 10)},
		cs,
	}
}

// coreFiringOrder commits firingOrderBatches(dup) under core, one commit
// per batch or one per op, runs to quiescence under FIFO and returns what
// the firings wrote.
func coreFiringOrder(t *testing.T, batched, dup bool) string {
	t.Helper()
	var out strings.Builder
	sys, err := Load(firingOrderSrc, Options{Matcher: MatcherCore, Strategy: StrategyFIFO, Out: &out})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	for _, batch := range firingOrderBatches(dup) {
		commits := [][]snapOp{batch}
		if !batched {
			commits = nil
			for i := range batch {
				commits = append(commits, batch[i:i+1])
			}
		}
		for _, ops := range commits {
			b := sys.Batch()
			for _, op := range ops {
				b.Assert(op.class, op.vals...)
			}
			if _, err := b.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// TestCoreFiringOrder compares core's FIFO firing sequence, in tuple and
// in batch mode, and in batch mode with a duplicate C, with the golden
// file.
func TestCoreFiringOrder(t *testing.T) {
	want, err := os.ReadFile(firingOrderGolden)
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, mode := range []string{"tuple", "batch", "batch, duplicate C"} {
		fmt.Fprintf(&got, "# %s\n%s", mode, coreFiringOrder(t, mode != "tuple", mode == "batch, duplicate C"))
	}
	if got.String() != string(want) {
		t.Errorf("core fired\n%s\ngolden\n%s", got.String(), want)
	}
}

// coreTraceProfile loads testdata/payroll.ops under core without its
// facts, traces asserting them (one commit per fact, or one for all) and
// the run to quiescence, and renders the trace's match work per rule:
// the profile's counts, and per condition element and event kind the
// number of cond_scan, pattern_propagate and join_eval events and their
// Count sum. Times are left out.
func coreTraceProfile(t *testing.T, batched bool) []string {
	t.Helper()
	src, err := os.ReadFile("testdata/payroll.ops")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lang.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	facts := prog.Facts
	prog.Facts = nil
	sys, err := load(prog, Options{Matcher: MatcherCore, Out: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	tr := sys.Trace(TraceOptions{Capacity: 1 << 14})
	b := sys.Batch()
	for _, f := range facts {
		class, tup, err := rules.FactTuple(sys.set, f)
		if err != nil {
			t.Fatal(err)
		}
		b.Assert(class, tupleValues(tup)...)
		if !batched {
			if _, err := b.Commit(); err != nil {
				t.Fatal(err)
			}
			b = sys.Batch()
		}
	}
	if batched {
		if _, err := b.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	tr.Stop()
	if tr.Dropped() != 0 {
		t.Fatalf("%d trace events dropped", tr.Dropped())
	}
	var lines []string
	for _, r := range tr.Profile().Rules {
		lines = append(lines, fmt.Sprintf("%s match_ops=%d propagations=%d activations=%d deactivations=%d firings=%d",
			r.Name, r.MatchOps, r.Propagations, r.Activations, r.Deactivations, r.Firings))
		for _, ce := range r.CEs {
			lines = append(lines, fmt.Sprintf("%s ce%d scans=%d joins=%d propagations=%d", r.Name, ce.Index, ce.Scans, ce.Joins, ce.Propagations))
		}
	}
	type kindKey struct {
		rule string
		ce   int
		kind trace.Kind
	}
	events, sums := map[kindKey]int64{}, map[kindKey]int64{}
	for _, ev := range tr.Events() {
		switch ev.Kind {
		case trace.KindCondScan, trace.KindPatternPropagate, trace.KindJoinEval:
			k := kindKey{ev.Rule, ev.CE, ev.Kind}
			events[k]++
			sums[k] += ev.Count
		}
	}
	for k, n := range events {
		lines = append(lines, fmt.Sprintf("%s ce%d %s events=%d count=%d", k.rule, k.ce, k.kind, n, sums[k]))
	}
	sort.Strings(lines)
	return lines
}

// tupleValues is t as Batch.Assert arguments.
func tupleValues(t relation.Tuple) []any {
	out := make([]any, len(t))
	for i, v := range t {
		out[i] = v
	}
	return out
}

// TestCoreTraceProfile compares core's per-rule match work on
// testdata/payroll.ops, in tuple and in batch mode, with the golden file.
// The benchmark's per-layer match attribution reads these events.
func TestCoreTraceProfile(t *testing.T) {
	want, err := os.ReadFile(traceProfileGolden)
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, mode := range []string{"tuple", "batch"} {
		fmt.Fprintf(&got, "# %s\n", mode)
		for _, line := range coreTraceProfile(t, mode == "batch") {
			got.WriteString(line + "\n")
		}
	}
	if got.String() != string(want) {
		t.Errorf("core traced\n%s\ngolden\n%s", got.String(), want)
	}
}
