package prodsys

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// This file pins the counters of the three filter-then-verify matchers
// (requery, marker, ptree) to a golden file recorded before they shared
// one pipeline. Result counters and conflict sets must never move. Work
// counters must not move on tuple-at-a-time runs, nor on the batched
// requery and marker runs; on batched ptree runs, which gained the
// set-oriented path, they may only fall.

const counterGolden = "testdata/match_counters.golden.json"

// snapOp asserts vals into class, or, when vals is nil, retracts the
// tuple the ref-th assert of the stream (0-based) created.
type snapOp struct {
	class string
	vals  []any
	ref   int
}

type snapWorkload struct {
	name    string
	src     string
	batches [][]snapOp
}

// snapRow is one golden entry: every counter, and the final conflict set.
type snapRow struct {
	Counters map[string]int64 `json:"counters"`
	Keys     []string         `json:"keys"`
}

// resultCounters must match the golden file on every row.
var resultCounters = map[string]bool{
	"tuples_inserted": true, "tuples_deleted": true,
	"instantiations": true, "retractions": true,
}

func snapAssert(class string, vals ...any) snapOp { return snapOp{class: class, vals: vals} }
func snapRetract(class string, ref int) snapOp    { return snapOp{class: class, ref: ref} }

func snapWorkloads() []snapWorkload {
	return []snapWorkload{
		{
			name: "payroll",
			src: `
(literalize Emp name age salary dno manager)
(literalize Dept dno dname floor manager)
(p R1 (Emp ^name Mike ^salary <S> ^manager <M>) (Emp ^name <M> ^salary {<S1> < <S>}) --> (remove 1))
(p R2 (Emp ^dno <D>) (Dept ^dno <D> ^dname Toy ^floor 1) --> (remove 1))`,
			batches: [][]snapOp{
				{snapAssert("Emp", "Mike", 30, 1000, 1, "Sam"), snapAssert("Emp", "Sam", 50, 900, 1, "Pat")},
				{snapAssert("Dept", 1, "Toy", 1, "Sam"), snapAssert("Emp", "Ann", 40, 800, 1, "Mike")},
				{snapRetract("Dept", 2)},
				{snapRetract("Emp", 1), snapRetract("Emp", 0)},
			},
		},
		{
			name: "negation",
			src: `
(literalize Emp name dno)
(literalize Dept dno dname)
(p Orphan (Emp ^name <n> ^dno <d>) - (Dept ^dno <d>) --> (halt))
(p Staffed (Dept ^dno <d> ^dname <m>) (Emp ^dno <d>) --> (halt))`,
			batches: [][]snapOp{
				{snapAssert("Emp", "Ann", 7), snapAssert("Dept", 7, "Toy")},
				{snapAssert("Emp", "Bob", 9), snapAssert("Emp", "Cy", 7), snapAssert("Dept", 9, "Shoe"), snapAssert("Dept", 9, "Toy")},
				{snapRetract("Dept", 1)},
				{snapRetract("Dept", 4), snapRetract("Dept", 5)},
				{snapRetract("Emp", 0)},
			},
		},
		{
			name: "selfjoin",
			src: `
(literalize A x y)
(p Self (A ^x <v>) (A ^y <v>) --> (halt))`,
			batches: [][]snapOp{
				{snapAssert("A", 3, 3), snapAssert("A", 5, 3), snapAssert("A", 3, 5)},
				{snapAssert("A", 5, 5), snapRetract("A", 0)},
				{snapRetract("A", 1), snapRetract("A", 2)},
			},
		},
		randomSnapWorkload(11, 40),
	}
}

// randomSnapWorkload is a seeded stream over a self-join, a range join
// and a negated rule. A retraction only targets a tuple asserted in an
// earlier batch, so both run modes can resolve its ID.
func randomSnapWorkload(seed int64, batches int) snapWorkload {
	r := rand.New(rand.NewSource(seed))
	w := snapWorkload{
		name: "random",
		src: `
(literalize A x y)
(literalize B x y)
(p Self (A ^x <v>) (A ^y <v>) --> (halt))
(p Range (A ^x > 1 ^y <v>) (B ^x <v> ^y <= 2) --> (halt))
(p Lone (B ^x <v>) - (A ^x <v> ^y 0) --> (halt))`,
	}
	var live []snapOp // a retraction of each tuple live before this batch
	asserts := 0
	for b := 0; b < batches; b++ {
		var batch, born []snapOp
		for n := 1 + r.Intn(6); n > 0; n-- {
			if len(live) > 0 && r.Intn(100) < 35 {
				k := r.Intn(len(live))
				batch = append(batch, live[k])
				live = append(live[:k], live[k+1:]...)
				continue
			}
			class := []string{"A", "B"}[r.Intn(2)]
			batch = append(batch, snapAssert(class, r.Intn(4), r.Intn(4)))
			born = append(born, snapRetract(class, asserts))
			asserts++
		}
		live = append(live, born...)
		w.batches = append(w.batches, batch)
	}
	return w
}

// runSnapWorkload runs w under matcher m, one commit per batch or, since
// System.Assert and Retract are one-op batches, one per op, and returns
// the row it ends in.
func runSnapWorkload(t *testing.T, w snapWorkload, m Matcher, batched bool) snapRow {
	t.Helper()
	sys, err := Load(w.src, Options{Matcher: m, Out: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	commits := w.batches
	if !batched {
		commits = nil
		for _, batch := range w.batches {
			for i := range batch {
				commits = append(commits, batch[i:i+1])
			}
		}
	}
	var ids []uint64 // by assert index
	for _, ops := range commits {
		b := sys.Batch()
		for _, op := range ops {
			if op.vals == nil {
				b.Retract(op.class, ids[op.ref])
			} else {
				b.Assert(op.class, op.vals...)
			}
		}
		got, err := b.Commit()
		if err != nil {
			t.Fatalf("%s/%s: %v", w.name, m, err)
		}
		for i, op := range ops {
			if op.vals != nil {
				ids = append(ids, got[i])
			}
		}
	}
	return snapRow{Counters: sys.Metrics().Counters, Keys: sys.ConflictKeys()}
}

// TestMatchCounterSnapshot runs every workload under the three
// filter-then-verify matchers, in both modes, and checks each row, keyed
// "workload/mode/matcher", against the golden file.
func TestMatchCounterSnapshot(t *testing.T) {
	data, err := os.ReadFile(counterGolden)
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]snapRow
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	rows := 0
	for _, w := range snapWorkloads() {
		for _, mode := range []string{"tuple", "batch"} {
			for _, m := range []Matcher{MatcherRequery, MatcherMarker, MatcherPTree} {
				name := fmt.Sprintf("%s/%s/%s", w.name, mode, m)
				checkSnapRow(t, name, runSnapWorkload(t, w, m, mode == "batch"), golden[name])
				rows++
			}
		}
	}
	if rows != len(golden) {
		t.Errorf("%d rows, golden has %d", rows, len(golden))
	}
}

// checkSnapRow compares one row with its golden entry. Only the work
// counters of a batched ptree row may differ, and only downwards.
func checkSnapRow(t *testing.T, name string, got, want snapRow) {
	t.Helper()
	if !reflect.DeepEqual(got.Keys, want.Keys) {
		t.Errorf("%s: conflict set %v, golden %v", name, got.Keys, want.Keys)
	}
	var counters []string
	for c := range got.Counters {
		counters = append(counters, c)
	}
	for c := range want.Counters {
		if _, ok := got.Counters[c]; !ok {
			counters = append(counters, c)
		}
	}
	sort.Strings(counters)
	for _, c := range counters {
		switch g, w := got.Counters[c], want.Counters[c]; {
		case g == w:
		case resultCounters[c] || !strings.HasSuffix(name, "/batch/ptree"):
			t.Errorf("%s: %s = %d, golden %d", name, c, g, w)
		case g > w:
			t.Errorf("%s: %s rose to %d from golden %d", name, c, g, w)
		default:
			t.Logf("%s: %s fell %d -> %d", name, c, w, g)
		}
	}
}
