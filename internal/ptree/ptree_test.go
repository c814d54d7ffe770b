package ptree

import (
	"testing"

	"prodsys/internal/metrics"
	"prodsys/internal/relation"
	"prodsys/internal/rules"
	"prodsys/internal/value"
)

func TestIntervalBasics(t *testing.T) {
	full := FullInterval()
	if !full.contains(value.OfInt(5)) || !full.contains(value.OfSym("x")) || !full.contains(value.V{}) {
		t.Error("full interval contains everything")
	}
	iv := NewInterval(value.OfInt(10), value.OfInt(20))
	if !iv.contains(value.OfInt(10)) || !iv.contains(value.OfInt(20)) || iv.contains(value.OfInt(21)) {
		t.Error("closed interval bounds")
	}
	if iv.contains(value.V{}) {
		t.Error("bounded interval excludes nil")
	}
	pt := PointInterval(value.OfSym("Toy"))
	if !pt.contains(value.OfSym("Toy")) || pt.contains(value.OfSym("Shoe")) {
		t.Error("point interval")
	}
	// Numerics and textual values occupy disjoint coordinate ranges.
	if iv.contains(value.OfSym("15")) {
		t.Error("textual value inside numeric interval")
	}
}

func TestIntervalOverlapUnion(t *testing.T) {
	a := NewInterval(value.OfInt(0), value.OfInt(10))
	b := NewInterval(value.OfInt(5), value.OfInt(15))
	c := NewInterval(value.OfInt(20), value.OfInt(30))
	if !a.overlaps(b) || a.overlaps(c) {
		t.Error("overlap logic")
	}
	u := a.union(c)
	if !u.contains(value.OfInt(15)) {
		t.Error("union should span the gap")
	}
	if !FullInterval().overlaps(c) {
		t.Error("full overlaps everything")
	}
	if got := a.String(); got != "[0,10]" {
		t.Errorf("String = %q", got)
	}
	if got := FullInterval().String(); got != "[-inf,+inf]" {
		t.Errorf("String = %q", got)
	}
}

func TestRectOps(t *testing.T) {
	r := Rect{NewInterval(value.OfInt(0), value.OfInt(10)), PointInterval(value.OfSym("Toy"))}
	if !r.ContainsPoint([]value.V{value.OfInt(5), value.OfSym("Toy")}) {
		t.Error("point inside")
	}
	if r.ContainsPoint([]value.V{value.OfInt(5), value.OfSym("Shoe")}) {
		t.Error("point outside dim 2")
	}
	q := Rect{NewInterval(value.OfInt(8), value.OfInt(12)), FullInterval()}
	if !r.Overlaps(q) {
		t.Error("rect overlap")
	}
	if r.String() == "" {
		t.Error("rect string")
	}
}

func TestTreeInsertSearchPoint(t *testing.T) {
	tree := NewTree(1)
	for i := 0; i < 100; i++ {
		lo, hi := int64(i*10), int64(i*10+5)
		tree.Insert(&Item{Rect: Rect{NewInterval(value.OfInt(lo), value.OfInt(hi))}, Data: i})
	}
	if tree.Len() != 100 {
		t.Fatalf("Len = %d", tree.Len())
	}
	var hits []int
	tree.SearchPoint([]value.V{value.OfInt(42)}, func(it *Item) bool {
		hits = append(hits, it.Data.(int))
		return true
	})
	if len(hits) != 1 || hits[0] != 4 {
		t.Fatalf("point 42 hits = %v, want [4]", hits)
	}
	// Gap points hit nothing.
	hits = nil
	tree.SearchPoint([]value.V{value.OfInt(47)}, func(it *Item) bool {
		hits = append(hits, it.Data.(int))
		return true
	})
	if len(hits) != 0 {
		t.Fatalf("gap point hits = %v", hits)
	}
}

func TestTreeSearchPruning(t *testing.T) {
	// With many disjoint rectangles, a point search must visit far fewer
	// nodes than items.
	tree := NewTree(1)
	const n = 1000
	for i := 0; i < n; i++ {
		lo := int64(i * 10)
		tree.Insert(&Item{Rect: Rect{NewInterval(value.OfInt(lo), value.OfInt(lo+5))}, Data: i})
	}
	visited := tree.SearchPoint([]value.V{value.OfInt(5000)}, func(*Item) bool { return true })
	if visited >= n/2 {
		t.Fatalf("search visited %d nodes out of %d items — no pruning", visited, n)
	}
}

func TestTreeSearchRect(t *testing.T) {
	tree := NewTree(1)
	for i := 0; i < 50; i++ {
		lo := int64(i * 10)
		tree.Insert(&Item{Rect: Rect{NewInterval(value.OfInt(lo), value.OfInt(lo+5))}, Data: i})
	}
	var hits int
	tree.SearchRect(Rect{NewInterval(value.OfInt(100), value.OfInt(200))}, func(*Item) bool {
		hits++
		return true
	})
	// Items 10..20 overlap [100,200].
	if hits != 11 {
		t.Fatalf("rect query hits = %d, want 11", hits)
	}
	// Early stop.
	count := 0
	tree.SearchRect(Rect{FullInterval()}, func(*Item) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("early stop count = %d", count)
	}
}

const src = `
(literalize Emp name age salary dno)
(literalize Dept dno dname)
(p Old    (Emp ^age > 55) --> (halt))
(p Young  (Emp ^age < 30) --> (halt))
(p Banded (Emp ^age > 40 ^age < 50 ^salary > 1000) --> (halt))
(p Toy    (Emp ^dno <d>) (Dept ^dno <d> ^dname Toy) --> (remove 1))
(p NoDept (Emp ^dno <d>) - (Dept ^dno <d>) --> (halt))
`

func buildSet(t *testing.T) *rules.Set {
	t.Helper()
	set, _, err := rules.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func TestRectForCE(t *testing.T) {
	set := buildSet(t)
	banded, _ := set.RuleByName("Banded")
	r := RectForCE(banded.CEs[0])
	// age dimension: [40, 50] (closed relaxation of the strict bounds).
	if !r.ContainsPoint([]value.V{value.V{}, value.OfInt(45), value.OfInt(2000), value.V{}}) {
		t.Errorf("45/2000 should be admitted: %v", r)
	}
	if r.ContainsPoint([]value.V{value.V{}, value.OfInt(60), value.OfInt(2000), value.V{}}) {
		t.Errorf("60 should be excluded: %v", r)
	}
	if r.ContainsPoint([]value.V{value.V{}, value.OfInt(45), value.OfInt(500), value.V{}}) {
		t.Errorf("salary 500 should be excluded: %v", r)
	}
}

func TestCandidatesFor(t *testing.T) {
	set := buildSet(t)
	ix := NewIndex(set, nil)
	old := relation.Tuple{value.OfSym("Pat"), value.OfInt(60), value.OfInt(900), value.OfInt(1)}
	cands := ix.CandidatesFor("Emp", old)
	names := map[string]bool{}
	for _, ce := range cands {
		names[ce.Rule.Name] = true
	}
	if !names["Old"] || names["Young"] || names["Banded"] {
		t.Fatalf("candidates = %v", names)
	}
	// Unrestricted conditions (Toy, NoDept Emp CEs) always qualify.
	if !names["Toy"] || !names["NoDept"] {
		t.Fatalf("unrestricted CEs missing: %v", names)
	}
	if got := ix.CandidatesFor("Ghost", old); got != nil {
		t.Fatalf("unknown class candidates = %v", got)
	}
}

func TestRulesInRangePaperQuery(t *testing.T) {
	set := buildSet(t)
	var st metrics.Set
	ix := NewIndex(set, &st)
	// "Give me all the rules that apply on employees older than 55."
	got := ix.RulesInRange("Emp", "age", value.OfInt(55), value.V{})
	names := map[string]bool{}
	for _, r := range got {
		names[r.Name] = true
	}
	// Old overlaps (55,∞); Young [<30] does not; Banded [40,50] does not;
	// Toy/NoDept are unrestricted on age so overlap everything.
	if !names["Old"] || names["Young"] || names["Banded"] {
		t.Fatalf("rules = %v", names)
	}
	if !names["Toy"] || !names["NoDept"] {
		t.Fatalf("unrestricted rules missing: %v", names)
	}
	if st.Get(metrics.IndexLookups) == 0 {
		t.Error("index visits not counted")
	}
	// Bounded query.
	got = ix.RulesInRange("Emp", "age", value.OfInt(41), value.OfInt(49))
	names = map[string]bool{}
	for _, r := range got {
		names[r.Name] = true
	}
	if !names["Banded"] || names["Old"] || names["Young"] {
		t.Fatalf("banded query = %v", names)
	}
	// Bad class/attr.
	if ix.RulesInRange("Ghost", "age", value.V{}, value.V{}) != nil {
		t.Error("unknown class")
	}
	if ix.RulesInRange("Emp", "ghost", value.V{}, value.V{}) != nil {
		t.Error("unknown attr")
	}
}

func TestTreeDimsMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("dims mismatch should panic")
		}
	}()
	NewTree(2).Insert(&Item{Rect: FullRect(1)})
}
