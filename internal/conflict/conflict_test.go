package conflict

import (
	"math/rand"
	"slices"
	"sort"
	"sync"
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

func key(r *rules.Rule, ids ...relation.TupleID) Key { return inst(r, ids...).Key() }

func TestAddRemoveContains(t *testing.T) {
	set, r1, _ := fixture(t)
	var stats metrics.Set
	s := NewSet(set, &stats)
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
	if in.KeyString() != "First|3|7" {
		t.Errorf("KeyString = %q", in.KeyString())
	}
	if in.Recency() != 7 {
		t.Errorf("Recency = %d", in.Recency())
	}
	if in.String() == "" {
		t.Error("String should render")
	}
}

func TestRemoveByTuple(t *testing.T) {
	set, r1, r2 := fixture(t)
	s := NewSet(set, nil)
	s.Add(inst(r1, 1, 2))
	s.Add(inst(r1, 1, 3))
	s.Add(inst(r2, 9))
	removed := s.RemoveByTuple(nil, "A", 1)
	if len(removed) != 2 {
		t.Fatalf("removed %d, want 2", len(removed))
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
	// B tuple 2 no longer supports anything.
	if got := s.RemoveByTuple(nil, "B", 2); len(got) != 0 {
		t.Fatalf("stale reverse index: %v", got)
	}
	// Class distinguishes tuples with the same ID.
	if got := s.RemoveByTuple(nil, "A", 9); len(got) != 1 {
		t.Fatalf("A:9 should remove Second: %v", got)
	}
	// A class no rule mentions supports nothing.
	if got := s.RemoveByTuple(nil, "Nope", 1); got != nil {
		t.Fatalf("unknown class removed %v", got)
	}
	s.ForgetTuple("Nope", 1)
}

func TestRemoveWhere(t *testing.T) {
	set, r1, r2 := fixture(t)
	s := NewSet(set, nil)
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
	set, r1, r2 := fixture(t)
	s := NewSet(set, nil)
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
	set, r1, _ := fixture(t)
	s := NewSet(set, nil)
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
	if got := s.Select(FIFO{}); got == nil || got.KeyString() != "First|1|9" {
		t.Fatalf("fresh instantiation should be selectable: %v", got)
	}
}

func TestForgetTuplePrunesFiredKeys(t *testing.T) {
	set, r1, r2 := fixture(t)
	s := NewSet(set, nil)
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
	s.Remove(key(r1, 1, 2))
	if !s.HasFired(key(r1, 1, 2)) {
		t.Fatal("retraction without a tuple delete dropped the refraction mark")
	}
	// B:2 and A:2 are different tuples.
	s.ForgetTuple("A", 2)
	if s.FiredLen() != 4 {
		t.Fatalf("FiredLen = %d after forgetting an unrelated tuple, want 4", s.FiredLen())
	}
	s.ForgetTuple("B", 2)
	if s.HasFired(key(r1, 1, 2)) || s.FiredLen() != 3 {
		t.Fatalf("First|1|2 still marked after B:2 was deleted (FiredLen %d)", s.FiredLen())
	}
	s.ForgetTuple("A", 1)
	if s.FiredLen() != 1 || !s.HasFired(key(r2, 4)) {
		t.Fatalf("FiredLen = %d after A:1 was deleted, want only Second|4", s.FiredLen())
	}
	if n := indexedTuples(s.firedBy); n != 1 {
		t.Fatalf("reverse index holds %d tuples, want 1: %v", n, s.firedBy)
	}
}

// indexedTuples counts the tuples a per-tuple index holds a list for,
// across its class maps.
func indexedTuples(ix tupleIndex) int {
	n := 0
	for _, m := range ix {
		n += len(m)
	}
	return n
}

func TestSelectEmpty(t *testing.T) {
	set, _, _ := fixture(t)
	s := NewSet(set, nil)
	if s.Select(FIFO{}) != nil {
		t.Error("empty set should select nil")
	}
}

func TestSelectAll(t *testing.T) {
	set, r1, r2 := fixture(t)
	s := NewSet(set, nil)
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
	set, r1, r2 := fixture(t)
	s := NewSet(set, nil)
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
	set, r1, r2 := fixture(t)
	s := NewSet(set, nil)
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
	set, r1, _ := fixture(t)
	s := NewSet(set, nil)
	a := inst(r1, 1, 2)
	b := inst(r1, 1, 9)
	s.Add(a)
	s.Add(b)
	if got := s.Select(Priority{}); got.Key() != b.Key() {
		t.Errorf("Priority tie-break should prefer recency: %v", got)
	}
}

func TestReset(t *testing.T) {
	set, r1, _ := fixture(t)
	s := NewSet(set, nil)
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
	s := NewSet(set, nil)
	s.Add(&Instantiation{Rule: r, TupleIDs: []relation.TupleID{4, 0}, Tuples: make([]relation.Tuple, 2)})
	// Deleting B:0 (meaningless id) must not retract.
	if got := s.RemoveByTuple(nil, "B", 0); len(got) != 0 {
		t.Fatalf("negated CE should not be tuple-indexed: %v", got)
	}
	if got := s.RemoveByTuple(nil, "A", 4); len(got) != 1 {
		t.Fatalf("positive CE should be indexed: %v", got)
	}
}

func TestKeyRendersAndParses(t *testing.T) {
	set, _, err := rules.CompileSource(`
(literalize A x)
(literalize B y)
(p a|b (A ^x <v>) - (B ^y <v>) --> (halt))
(p a (A ^x <v>) (B ^y <v>) (B ^y <v>) --> (halt))
(p Wide (A ^x 1) (A ^x 2) (A ^x 3) (A ^x 4) (A ^x 5) (A ^x 6) (A ^x 7) (A ^x 8) --> (halt))`)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		rule string
		ids  []relation.TupleID
		want string
	}{
		{"a|b", []relation.TupleID{12, 0}, "a|b|12|0"},
		{"a", []relation.TupleID{12, 0, 3}, "a|12|0|3"},
		{"a", []relation.TupleID{1<<32 + 12, 0, 3}, "a|4294967308|0|3"},
		{"Wide", []relation.TupleID{1, 2, 3, 4, 5, 6, 7, 1 << 40}, "Wide|1|2|3|4|5|6|7|1099511627776"},
	} {
		r, _ := set.RuleByName(c.rule)
		in := inst(r, c.ids...)
		if got := in.KeyString(); got != c.want {
			t.Errorf("KeyString = %q, want %q", got, c.want)
		}
		k, ok := ParseKey(set, c.want)
		if !ok || k != in.Key() {
			t.Errorf("ParseKey(%q) = %v, %v; want the instantiation's key", c.want, k, ok)
		}
	}
	wide, _ := set.RuleByName("Wide")
	if key(wide, 1, 2, 3, 4, 5, 6, 7, 8) == key(wide, 1, 2, 3, 4, 5, 6, 7, 9) {
		t.Error("keys differing past the inline IDs compare equal")
	}
	a, _ := set.RuleByName("a")
	if key(a, 1<<32+12, 0, 3) == key(a, 12, 0, 3) {
		t.Error("an ID past 32 bits collides with its low half")
	}
	for _, bad := range []string{"", "nope|1", "a|1|2", "a|1|2|x", "Wide|1|2"} {
		if _, ok := ParseKey(set, bad); ok {
			t.Errorf("ParseKey(%q) accepted a key no rule matches", bad)
		}
	}
}

// TestRemovalsInSeqOrder pins the deterministic retraction order: the
// returned slice and the observer's delete triggers follow Seq, however
// the instantiations were indexed.
func TestRemovalsInSeqOrder(t *testing.T) {
	set, r1, r2 := fixture(t)
	s := NewSet(set, nil)
	var seen []uint64
	s.SetObserver(func(added bool, in *Instantiation) {
		if !added {
			seen = append(seen, in.Seq)
		}
	})
	for id := relation.TupleID(2); id < 66; id++ {
		s.Add(inst(r1, 1, id))
		s.Add(inst(r2, id))
	}
	check := func(what string, out []*Instantiation, want int) {
		t.Helper()
		if len(out) != want || len(seen) != want {
			t.Fatalf("%s removed %d (observer saw %d), want %d", what, len(out), len(seen), want)
		}
		for i, in := range out {
			if in.Seq != seen[i] || (i > 0 && in.Seq <= out[i-1].Seq) {
				t.Fatalf("%s: removal %d has Seq %d after %d (observer %v)", what, i, in.Seq, out[max(i-1, 0)].Seq, seen)
			}
		}
		seen = nil
	}
	check("RemoveByTuple", s.RemoveByTuple(nil, "A", 1), 64)
	check("RemoveWhere", s.RemoveWhere(func(in *Instantiation) bool { return in.TupleIDs[0]%2 == 0 }), 32)
}

// TestHotPathsDoNotAllocate pins the agenda and integer keys: FIFO
// selection, and refraction checks and marks for rules of at most
// inlineIDs condition elements, allocate nothing; nor does adding and
// retracting an instantiation, which is one allocation.
func TestHotPathsDoNotAllocate(t *testing.T) {
	set, r1, r2 := fixture(t)
	s := NewSet(set, nil)
	for id := relation.TupleID(1); id <= 100; id++ {
		s.Add(inst(r1, id, id+1000))
	}
	fired := inst(r2, 7)
	s.Add(fired)
	s.MarkFired(fired.Key())
	refracted := inst(r2, 7)
	s.Add(refracted)
	if n := testing.AllocsPerRun(100, func() {
		if s.Select(FIFO{}) == nil {
			t.Fatal("nothing selected")
		}
	}); n != 0 {
		t.Errorf("FIFO Select allocates %v per call", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if !s.HasFired(refracted.Key()) {
			t.Fatal("mark lost")
		}
		s.MarkFired(fired.Key())
	}); n != 0 {
		t.Errorf("HasFired+MarkFired allocate %v per call", n)
	}
	if s.Len() != 100 {
		t.Fatalf("Len = %d: MarkFired of a marked key must still retract its live re-derivation", s.Len())
	}
	// An instantiation is one object, its supporting-tuple links
	// included, and churning it through the set allocates nothing.
	ids, tuples := []relation.TupleID{5000, 6000}, make([]relation.Tuple, 2)
	var in *Instantiation
	if n := testing.AllocsPerRun(100, func() { in = NewInstantiation(r1, ids, tuples) }); n != 1 {
		t.Errorf("NewInstantiation of a 2-CE rule makes %v allocations, want 1", n)
	}
	batch, dst := []*Instantiation{in}, make([]*Instantiation, 0, 1)
	if n := testing.AllocsPerRun(100, func() {
		if s.AddAll(batch) != 1 {
			t.Fatal("AddAll added nothing")
		}
		if dst = s.RemoveByTuple(dst[:0], "B", 6000); len(dst) != 1 {
			t.Fatalf("RemoveByTuple retracted %d", len(dst))
		}
	}); n != 0 {
		t.Errorf("AddAll+RemoveByTuple allocate %v per call", n)
	}
	// The candidate buffers LEX and the others reuse must not keep
	// retracted instantiations alive.
	s.Select(LEX{})
	if buf, _ := s.cands.Get().(*[]*Instantiation); buf != nil {
		for _, in := range (*buf)[:cap(*buf)] {
			if in != nil {
				t.Fatalf("Select left %v in its candidate buffer", in)
			}
		}
	}
}

// oracle is a deliberately naive conflict set: string keys, map-only
// storage, and a sort of the whole set on every Select. The model test
// runs it next to Set on random operation sequences.
type oracle struct {
	items   map[string]*Instantiation
	byTuple map[oracleRef]map[string]struct{}
	fired   map[string][]oracleRef
	firedBy map[oracleRef]map[string]struct{}
	seq     uint64
}

type oracleRef struct {
	class string
	id    relation.TupleID
}

func newOracle() *oracle {
	o := &oracle{}
	o.Reset()
	return o
}

func (o *oracle) Reset() {
	o.items = map[string]*Instantiation{}
	o.byTuple = map[oracleRef]map[string]struct{}{}
	o.fired = map[string][]oracleRef{}
	o.firedBy = map[oracleRef]map[string]struct{}{}
	o.seq = 0
}

func oracleLink(ix map[oracleRef]map[string]struct{}, ref oracleRef, key string) {
	if ix[ref] == nil {
		ix[ref] = map[string]struct{}{}
	}
	ix[ref][key] = struct{}{}
}

func oracleUnlink(ix map[oracleRef]map[string]struct{}, ref oracleRef, key string) {
	if set := ix[ref]; set != nil {
		delete(set, key)
		if len(set) == 0 {
			delete(ix, ref)
		}
	}
}

func supportRefs(in *Instantiation) []oracleRef {
	var refs []oracleRef
	for i, id := range in.TupleIDs {
		if !in.Rule.CEs[i].Negated && id != 0 {
			refs = append(refs, oracleRef{in.Rule.CEs[i].Class, id})
		}
	}
	return refs
}

func (o *oracle) AddAll(ins []*Instantiation) int {
	added := 0
	for _, in := range ins {
		key := in.KeyString()
		if _, dup := o.items[key]; dup {
			continue
		}
		o.seq++
		in.Seq = o.seq
		o.items[key] = in
		for _, ref := range supportRefs(in) {
			oracleLink(o.byTuple, ref, key)
		}
		added++
	}
	return added
}

func (o *oracle) Remove(key string) bool {
	in, ok := o.items[key]
	if !ok {
		return false
	}
	delete(o.items, key)
	for _, ref := range supportRefs(in) {
		oracleUnlink(o.byTuple, ref, key)
	}
	return true
}

func (o *oracle) RemoveByTuple(class string, id relation.TupleID) []*Instantiation {
	var out []*Instantiation
	for key := range o.byTuple[oracleRef{class, id}] {
		out = append(out, o.items[key])
	}
	for _, in := range out {
		o.Remove(in.KeyString())
	}
	return out
}

func (o *oracle) RemoveWhere(pred func(*Instantiation) bool) []*Instantiation {
	var out []*Instantiation
	for _, in := range o.items {
		if pred(in) {
			out = append(out, in)
		}
	}
	for _, in := range out {
		o.Remove(in.KeyString())
	}
	return out
}

func (o *oracle) MarkFired(key string) {
	if _, marked := o.fired[key]; !marked {
		var refs []oracleRef
		if in := o.items[key]; in != nil {
			refs = supportRefs(in)
			for _, ref := range refs {
				oracleLink(o.firedBy, ref, key)
			}
		}
		o.fired[key] = refs
	}
	o.Remove(key)
}

func (o *oracle) ForgetTuple(class string, id relation.TupleID) {
	gone := oracleRef{class, id}
	for key := range o.firedBy[gone] {
		for _, ref := range o.fired[key] {
			if ref != gone {
				oracleUnlink(o.firedBy, ref, key)
			}
		}
		delete(o.fired, key)
	}
	delete(o.firedBy, gone)
}

func (o *oracle) eligible(all bool) []*Instantiation {
	var out []*Instantiation
	for key, in := range o.items {
		if _, marked := o.fired[key]; all || !marked {
			out = append(out, in)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

func (o *oracle) Select(st Strategy) *Instantiation {
	cands := o.eligible(false)
	if len(cands) == 0 {
		return nil
	}
	return st.Select(cands)
}

func (o *oracle) Keys() []string {
	var out []string
	for k := range o.items {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestSetMatchesOracle is the model-based test of the agenda: random
// sequences of every mutating operation — over rules with a negated
// condition element, a self-join and more condition elements than a Key
// holds inline — leave Set and the oracle in agreement on every query,
// and every strategy selects the same instantiation from both.
func TestSetMatchesOracle(t *testing.T) {
	set, _, err := rules.CompileSource(`
(literalize A x)
(literalize B y)
(p Join (A ^x <v>) (B ^y <v>) --> (halt))
(p Solo (B ^y <v>) --> (halt))
(p Neg (A ^x <v>) - (B ^y <v>) --> (halt))
(p Self (A ^x <v>) (A ^x <v>) --> (halt))
(p Wide (A ^x 1) (B ^y 2) (A ^x 3) (B ^y 4) (A ^x 5) (B ^y 6) (A ^x 7) (B ^y 8) --> (halt))`)
	if err != nil {
		t.Fatal(err)
	}
	classes := []string{"A", "B"}
	steps := 3000
	if testing.Short() {
		steps = 500
	}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s, o := NewSet(set, nil), newOracle()
		// randID draws from a small domain, a few IDs past 32 bits.
		randID := func() relation.TupleID {
			id := relation.TupleID(1 + rng.Intn(5))
			if rng.Intn(8) == 0 {
				id += 1 << 32
			}
			return id
		}
		// random builds an instantiation of a random rule over a small ID
		// domain, so duplicates and shared supports are common.
		random := func() (*Instantiation, *Instantiation) {
			r := set.Rules[rng.Intn(len(set.Rules))]
			ids := make([]relation.TupleID, len(r.CEs))
			for i, ce := range r.CEs {
				if !ce.Negated {
					ids[i] = randID()
				}
			}
			return inst(r, ids...), inst(r, ids...)
		}
		same := func(step int, what string, a, b []*Instantiation) {
			t.Helper()
			if len(a) != len(b) {
				t.Fatalf("seed %d step %d: %s: %d instantiations, oracle %d", seed, step, what, len(a), len(b))
			}
			for i := range a {
				if a[i].KeyString() != b[i].KeyString() || a[i].Seq != b[i].Seq {
					t.Fatalf("seed %d step %d: %s[%d] = %s#%d, oracle %s#%d", seed, step, what, i,
						a[i].KeyString(), a[i].Seq, b[i].KeyString(), b[i].Seq)
				}
			}
		}
		bySeq := func(ins []*Instantiation) []*Instantiation {
			out := append([]*Instantiation(nil), ins...)
			sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
			return out
		}
		for step := 0; step < steps; step++ {
			switch op := rng.Intn(20); {
			case op < 8:
				var ins, ons []*Instantiation
				for n := 1 + rng.Intn(4); n > 0; n-- {
					in, on := random()
					ins, ons = append(ins, in), append(ons, on)
				}
				if got, want := s.AddAll(ins), o.AddAll(ons); got != want {
					t.Fatalf("seed %d step %d: AddAll added %d, oracle %d", seed, step, got, want)
				}
			case op < 10:
				in, _ := random()
				if got, want := s.Remove(in.Key()), o.Remove(in.KeyString()); got != want {
					t.Fatalf("seed %d step %d: Remove = %v, oracle %v", seed, step, got, want)
				}
			case op < 12:
				class, id := classes[rng.Intn(2)], randID()
				got := s.RemoveByTuple(nil, class, id)
				same(step, "RemoveByTuple", got, bySeq(got))
				same(step, "RemoveByTuple", got, bySeq(o.RemoveByTuple(class, id)))
			case op < 13:
				cut := uint64(1 + rng.Intn(5))
				pred := func(in *Instantiation) bool { return in.Recency() == cut }
				got := s.RemoveWhere(pred)
				same(step, "RemoveWhere", got, bySeq(got))
				same(step, "RemoveWhere", got, bySeq(o.RemoveWhere(pred)))
			case op < 17:
				in, _ := random()
				if sel := s.Select(FIFO{}); sel != nil && rng.Intn(2) == 0 {
					in = sel // fire what the executor would
				}
				s.MarkFired(in.Key())
				o.MarkFired(in.KeyString())
			case op < 19:
				class, id := classes[rng.Intn(2)], randID()
				s.ForgetTuple(class, id)
				o.ForgetTuple(class, id)
			default:
				if rng.Intn(10) == 0 {
					s.Reset()
					o.Reset()
				}
			}
			for _, st := range []func() Strategy{
				func() Strategy { return FIFO{} },
				func() Strategy { return LEX{} },
				func() Strategy { return Priority{} },
				func() Strategy { return NewRandom(int64(step)) },
			} {
				got, want := s.Select(st()), o.Select(st())
				if (got == nil) != (want == nil) || (got != nil && (got.KeyString() != want.KeyString() || got.Seq != want.Seq)) {
					t.Fatalf("seed %d step %d: %s selected %v, oracle %v", seed, step, st().Name(), got, want)
				}
			}
			same(step, "Items", s.Items(), o.eligible(true))
			same(step, "SelectAll", s.SelectAll(), o.eligible(false))
			if got, want := s.Keys(), o.Keys(); !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: Keys %v, oracle %v", seed, step, got, want)
			}
			if s.FiredLen() != len(o.fired) || s.Len() != len(o.items) {
				t.Fatalf("seed %d step %d: FiredLen %d Len %d, oracle %d %d", seed, step, s.FiredLen(), s.Len(), len(o.fired), len(o.items))
			}
			for _, in := range o.items {
				if _, marked := o.fired[in.KeyString()]; s.HasFired(in.Key()) != marked {
					t.Fatalf("seed %d step %d: HasFired(%s) disagrees", seed, step, in.KeyString())
				}
			}
		}
	}
}

// TestConcurrentSelect runs every strategy's Select from several
// goroutines while another adds and retracts; run it under -race.
func TestConcurrentSelect(t *testing.T) {
	set, r1, r2 := fixture(t)
	s := NewSet(set, nil)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, st := range []Strategy{FIFO{}, LEX{}, Priority{}, LEX{}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					s.Select(st)
				}
			}
		}()
	}
	for id := relation.TupleID(1); id <= 500; id++ {
		s.AddAll([]*Instantiation{inst(r1, id, id+1), inst(r2, id)})
		if id%3 == 0 {
			s.RemoveByTuple(nil, "A", id-1)
		}
		if id%5 == 0 {
			s.MarkFired(key(r2, id))
		}
	}
	close(stop)
	wg.Wait()
	if got := len(s.SelectAll()); got == 0 {
		t.Fatal("nothing left to select")
	}
}

// TestKeyHashCollisionsChain builds two keys whose hashes collide — the
// first mixing round of Key.hash inverted — and checks that the set keeps
// both instantiations apart through every operation.
func TestKeyHashCollisionsChain(t *testing.T) {
	set, r1, r2 := fixture(t)
	const m = 0x9e3779b97f4a7c15
	p := uint64(uint32(r2.Index))*m ^ uint64(uint32(r1.Index))*m ^ 7 // Second|7's first round, as First's
	a, b := inst(r2, 7), inst(r1, relation.TupleID(uint32(p)), relation.TupleID(p>>32))
	if a.Key().hash() != b.Key().hash() {
		t.Fatal("the keys do not collide; rebuild them for the current Key.hash")
	}
	s := NewSet(set, nil)
	if s.AddAll([]*Instantiation{a, b}) != 2 || s.Len() != 2 {
		t.Fatalf("Len = %d after adding two colliding keys", s.Len())
	}
	if s.Add(inst(r2, 7)) || s.Add(inst(r1, b.TupleIDs...)) {
		t.Fatal("a duplicate of a colliding key was added")
	}
	if !s.Remove(a.Key()) || s.Contains(a.Key()) || !s.Contains(b.Key()) {
		t.Fatal("removing one colliding key disturbed the other")
	}
	s.Add(a) // a heads the chain now
	if !s.Remove(a.Key()) || !s.Contains(b.Key()) {
		t.Fatal("removing the head of a chain disturbed the rest")
	}
	s.Add(a)
	if got := s.RemoveByTuple(nil, "B", b.TupleIDs[1]); len(got) != 1 || got[0] != b || !s.Contains(a.Key()) {
		t.Fatalf("RemoveByTuple of b's tuple retracted %v", got)
	}
	s.MarkFired(a.Key())
	if s.Len() != 0 || !s.HasFired(a.Key()) || s.HasFired(b.Key()) {
		t.Fatalf("Len %d after firing the last colliding key", s.Len())
	}
}
