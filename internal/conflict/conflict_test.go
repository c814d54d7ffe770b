package conflict

import (
	"testing"

	"prodsys/internal/metrics"
	"prodsys/internal/relation"
	"prodsys/internal/rules"
)

const twoRuleSrc = `
(literalize A x)
(literalize B y)
(p First  (A ^x <v>) (B ^y <v>) --> (halt))
(p Second (A ^x <v>) --> (halt))
`

func fixture(t *testing.T) (*rules.Set, *rules.Rule, *rules.Rule) {
	t.Helper()
	set, _, err := rules.CompileSource(twoRuleSrc)
	if err != nil {
		t.Fatal(err)
	}
	r1, _ := set.RuleByName("First")
	r2, _ := set.RuleByName("Second")
	return set, r1, r2
}

func inst(r *rules.Rule, ids ...relation.TupleID) *Instantiation {
	return &Instantiation{Rule: r, TupleIDs: ids, Tuples: make([]relation.Tuple, len(ids))}
}

func TestAddRemoveContains(t *testing.T) {
	_, r1, _ := fixture(t)
	var stats metrics.Set
	s := NewSet(&stats)
	in := inst(r1, 1, 2)
	if !s.Add(in) {
		t.Fatal("first Add should succeed")
	}
	if s.Add(inst(r1, 1, 2)) {
		t.Fatal("duplicate Add should fail")
	}
	if s.Len() != 1 || !s.Contains(in.Key()) {
		t.Fatalf("Len=%d Contains=%v", s.Len(), s.Contains(in.Key()))
	}
	if !s.Remove(in.Key()) {
		t.Fatal("Remove should succeed")
	}
	if s.Remove(in.Key()) {
		t.Fatal("second Remove should fail")
	}
	if stats.Get(metrics.Instantiations) != 1 || stats.Get(metrics.Retractions) != 1 {
		t.Fatalf("stats: %v", stats.Snapshot())
	}
}

func TestKeyAndRecency(t *testing.T) {
	_, r1, _ := fixture(t)
	in := inst(r1, 3, 7)
	if in.Key() != "First|3|7" {
		t.Errorf("Key = %q", in.Key())
	}
	if in.Recency() != 7 {
		t.Errorf("Recency = %d", in.Recency())
	}
	if in.String() == "" {
		t.Error("String should render")
	}
}

func TestRemoveByTuple(t *testing.T) {
	_, r1, r2 := fixture(t)
	s := NewSet(nil)
	s.Add(inst(r1, 1, 2))
	s.Add(inst(r1, 1, 3))
	s.Add(inst(r2, 9))
	removed := s.RemoveByTuple("A", 1)
	if len(removed) != 2 {
		t.Fatalf("removed %d, want 2", len(removed))
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
	// B tuple 2 no longer supports anything.
	if got := s.RemoveByTuple("B", 2); len(got) != 0 {
		t.Fatalf("stale reverse index: %v", got)
	}
	// Class distinguishes tuples with the same ID.
	if got := s.RemoveByTuple("A", 9); len(got) != 1 {
		t.Fatalf("A:9 should remove Second: %v", got)
	}
}

func TestRemoveWhere(t *testing.T) {
	_, r1, r2 := fixture(t)
	s := NewSet(nil)
	s.Add(inst(r1, 1, 2))
	s.Add(inst(r2, 3))
	removed := s.RemoveWhere(func(in *Instantiation) bool { return in.Rule.Name == "Second" })
	if len(removed) != 1 || removed[0].Rule.Name != "Second" {
		t.Fatalf("RemoveWhere: %v", removed)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestItemsAndKeysOrdered(t *testing.T) {
	_, r1, r2 := fixture(t)
	s := NewSet(nil)
	s.Add(inst(r2, 5))
	s.Add(inst(r1, 1, 2))
	items := s.Items()
	if len(items) != 2 || items[0].Rule.Name != "Second" || items[0].Seq != 1 {
		t.Fatalf("Items order: %v", items)
	}
	keys := s.Keys()
	if len(keys) != 2 || keys[0] != "First|1|2" {
		t.Fatalf("Keys = %v", keys)
	}
}

func TestRefraction(t *testing.T) {
	_, r1, _ := fixture(t)
	s := NewSet(nil)
	in := inst(r1, 1, 2)
	s.Add(in)
	got := s.Select(FIFO{})
	if got == nil || got.Key() != in.Key() {
		t.Fatalf("Select = %v", got)
	}
	s.MarkFired(in.Key())
	if !s.HasFired(in.Key()) {
		t.Error("HasFired should be true")
	}
	if s.Len() != 0 {
		t.Error("MarkFired should remove the instantiation")
	}
	// Re-deriving the same instantiation does not make it selectable.
	s.Add(inst(r1, 1, 2))
	if got := s.Select(FIFO{}); got != nil {
		t.Fatalf("refraction violated: selected %v", got)
	}
	// But a fresh tuple combination is selectable.
	s.Add(inst(r1, 1, 9))
	if got := s.Select(FIFO{}); got == nil || got.Key() != "First|1|9" {
		t.Fatalf("fresh instantiation should be selectable: %v", got)
	}
}

func TestForgetTuplePrunesFiredKeys(t *testing.T) {
	_, r1, r2 := fixture(t)
	s := NewSet(nil)
	// Three fired keys share A:1; one of them also rests on B:2.
	for _, in := range []*Instantiation{inst(r1, 1, 2), inst(r1, 1, 3), inst(r2, 1), inst(r2, 4)} {
		s.Add(in)
		s.MarkFired(in.Key())
	}
	if s.FiredLen() != 4 {
		t.Fatalf("FiredLen = %d, want 4", s.FiredLen())
	}
	// A retraction that leaves every supporting tuple alive (a negated
	// condition element blocking the rule) keeps the key refracted.
	s.Add(inst(r1, 1, 2))
	s.Remove("First|1|2")
	if !s.HasFired("First|1|2") {
		t.Fatal("retraction without a tuple delete dropped the refraction mark")
	}
	// B:2 and A:2 are different tuples.
	s.ForgetTuple("A", 2)
	if s.FiredLen() != 4 {
		t.Fatalf("FiredLen = %d after forgetting an unrelated tuple, want 4", s.FiredLen())
	}
	s.ForgetTuple("B", 2)
	if s.HasFired("First|1|2") || s.FiredLen() != 3 {
		t.Fatalf("First|1|2 still marked after B:2 was deleted (FiredLen %d)", s.FiredLen())
	}
	s.ForgetTuple("A", 1)
	if s.FiredLen() != 1 || !s.HasFired("Second|4") {
		t.Fatalf("FiredLen = %d after A:1 was deleted, want only Second|4", s.FiredLen())
	}
	if len(s.firedBy) != 1 {
		t.Fatalf("reverse index holds %d tuples, want 1: %v", len(s.firedBy), s.firedBy)
	}
}

func TestSelectEmpty(t *testing.T) {
	s := NewSet(nil)
	if s.Select(FIFO{}) != nil {
		t.Error("empty set should select nil")
	}
}

func TestSelectAll(t *testing.T) {
	_, r1, r2 := fixture(t)
	s := NewSet(nil)
	a := inst(r1, 1, 2)
	b := inst(r2, 3)
	s.Add(a)
	s.Add(b)
	s.MarkFired(a.Key())
	got := s.SelectAll()
	if len(got) != 1 || got[0].Rule.Name != "Second" {
		t.Fatalf("SelectAll = %v", got)
	}
}

func TestStrategies(t *testing.T) {
	_, r1, r2 := fixture(t)
	s := NewSet(nil)
	older := inst(r2, 10) // recency 10, rule index 1, specificity 1
	newer := inst(r1, 3, 12)
	s.Add(older)
	s.Add(newer)

	if got := s.Select(FIFO{}); got.Key() != older.Key() {
		t.Errorf("FIFO selected %v", got)
	}
	if got := s.Select(LEX{}); got.Key() != newer.Key() {
		t.Errorf("LEX selected %v (recency should win)", got)
	}
	if got := s.Select(Priority{}); got.Key() != newer.Key() {
		t.Errorf("Priority selected %v (First has lower index)", got)
	}
	r := NewRandom(42)
	if got := s.Select(r); got == nil {
		t.Error("Random selected nil")
	}
	for _, st := range []Strategy{FIFO{}, LEX{}, Priority{}, NewRandom(1)} {
		if st.Name() == "" {
			t.Error("strategy needs a name")
		}
	}
}

func TestLEXSpecificityTieBreak(t *testing.T) {
	_, r1, r2 := fixture(t)
	s := NewSet(nil)
	a := inst(r2, 5) // specificity 1
	b := inst(r1, 5, 5)
	s.Add(a)
	s.Add(b)
	got := s.Select(LEX{})
	if got.Rule.Name != "First" {
		t.Errorf("LEX tie-break should prefer more specific First, got %v", got)
	}
}

func TestPriorityRecencyTieBreak(t *testing.T) {
	_, r1, _ := fixture(t)
	s := NewSet(nil)
	a := inst(r1, 1, 2)
	b := inst(r1, 1, 9)
	s.Add(a)
	s.Add(b)
	if got := s.Select(Priority{}); got.Key() != b.Key() {
		t.Errorf("Priority tie-break should prefer recency: %v", got)
	}
}

func TestReset(t *testing.T) {
	_, r1, _ := fixture(t)
	s := NewSet(nil)
	in := inst(r1, 1, 2)
	s.Add(in)
	s.MarkFired(in.Key())
	s.Reset()
	if s.Len() != 0 || s.HasFired(in.Key()) {
		t.Error("Reset should clear items and refraction")
	}
	s.Add(inst(r1, 1, 2))
	if got := s.Select(FIFO{}); got == nil {
		t.Error("after Reset the instantiation should be selectable again")
	}
}

func TestNegatedCEZeroIDNotIndexed(t *testing.T) {
	set, _, err := rules.CompileSource(`
(literalize A x)
(literalize B y)
(p Neg (A ^x <v>) - (B ^y <v>) --> (halt))`)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := set.RuleByName("Neg")
	s := NewSet(nil)
	s.Add(&Instantiation{Rule: r, TupleIDs: []relation.TupleID{4, 0}, Tuples: make([]relation.Tuple, 2)})
	// Deleting B:0 (meaningless id) must not retract.
	if got := s.RemoveByTuple("B", 0); len(got) != 0 {
		t.Fatalf("negated CE should not be tuple-indexed: %v", got)
	}
	if got := s.RemoveByTuple("A", 4); len(got) != 1 {
		t.Fatalf("positive CE should be indexed: %v", got)
	}
}
