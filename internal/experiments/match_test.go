// Package experiments holds the reproduction's paper claims as tests:
// each test builds the experiment's workload, computes typed counters and
// fails if the claim's direction inverts. The DESIGN.md experiment index
// and EXPERIMENTS.md name the test for every figure and experiment. The
// package has no non-test code.
package experiments

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"prodsys/internal/conflict"
	"prodsys/internal/joiner"
	"prodsys/internal/match"
	"prodsys/internal/matchers"
	"prodsys/internal/metrics"
	"prodsys/internal/ptree"
	"prodsys/internal/recheck"
	"prodsys/internal/relation"
	"prodsys/internal/rete"
	"prodsys/internal/rules"
	"prodsys/internal/value"
	"prodsys/internal/view"
	"prodsys/internal/workload"
)

// sink is what a session notifies of each WM change, as a one-change
// delta: a matcher, a view manager or a recomputation baseline.
type sink interface {
	Apply(d *relation.Delta) error
}

// matcherSink makes a matcher a sink.
type matcherSink struct{ match.Matcher }

func (m matcherSink) Apply(d *relation.Delta) error {
	_, err := match.ApplyDelta(m.Matcher, d)
	return err
}

// session bundles a WM catalog with one sink.
type session struct {
	t       *testing.T
	db      *relation.DB
	sink    sink
	matcher match.Matcher // the sink, when it is a matcher
	stats   *metrics.Set
	live    map[string][]relation.TupleID
}

// newSession compiles src and builds the sink mk returns.
func newSession(t *testing.T, src string, mk func(*rules.Set, *relation.DB, *conflict.Set, *metrics.Set) (sink, error)) *session {
	t.Helper()
	set, _, err := rules.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	stats := &metrics.Set{}
	db := relation.NewDB(stats)
	if err := rules.BuildDB(set, db); err != nil {
		t.Fatal(err)
	}
	k, err := mk(set, db, conflict.NewSet(set, stats), stats)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := k.(matcherSink) // a view manager or baseline has no matcher
	return &session{t: t, db: db, sink: k, matcher: m.Matcher, stats: stats, live: map[string][]relation.TupleID{}}
}

// matcherSession builds a session over the named matcher.
func matcherSession(t *testing.T, src, name string) *session {
	t.Helper()
	return newSession(t, src, func(set *rules.Set, db *relation.DB, cs *conflict.Set, stats *metrics.Set) (sink, error) {
		m, err := matchers.New(name, set, db, cs, stats)
		return matcherSink{m}, err
	})
}

// insert stores the tuple in WM and notifies the matcher.
func (s *session) insert(class string, t relation.Tuple) {
	s.t.Helper()
	rel := s.db.MustGet(class)
	id, err := rel.Insert(t)
	if err != nil {
		s.t.Fatal(err)
	}
	stored, _ := rel.Get(id)
	d := relation.NewDelta()
	d.AddInsert(class, id, stored)
	if err := s.sink.Apply(d); err != nil {
		s.t.Fatal(err)
	}
	s.live[class] = append(s.live[class], id)
}

// deleteOldest removes the oldest live tuple of the class; an op stream's
// delete on an empty class is skipped.
func (s *session) deleteOldest(class string) {
	s.t.Helper()
	ids := s.live[class]
	if len(ids) == 0 {
		return
	}
	s.live[class] = ids[1:]
	t, err := s.db.MustGet(class).Delete(ids[0])
	if err != nil {
		s.t.Fatal(err)
	}
	d := relation.NewDelta()
	d.AddDelete(class, ids[0], t)
	if err := s.sink.Apply(d); err != nil {
		s.t.Fatal(err)
	}
}

// apply runs a workload op stream.
func (s *session) apply(ops []workload.Op) {
	s.t.Helper()
	for _, op := range ops {
		if op.Delete {
			s.deleteOldest(op.Class)
		} else {
			s.insert(op.Class, op.Tuple)
		}
	}
}

// diffKeys returns the keys in a but not in b.
func diffKeys(a, b []string) []string {
	var out []string
	for _, k := range a {
		if !slices.Contains(b, k) {
			out = append(out, k)
		}
	}
	return out
}

// TestFiguresRender checks Figures 2 and 3 on Example 2's rules. Fig. 2:
// tokens (±tuples) enter the network and leave as conflict-set changes —
// +Goal adds nothing, each +Expression adds its rule's instantiation, and
// −Goal removes both. Fig. 3: the compiled network shares the Goal
// one-input chain, so four condition elements need three alpha chains.
func TestFiguresRender(t *testing.T) {
	s := matcherSession(t, workload.SimplifyRules(), "rete")
	cs := s.matcher.ConflictSet()
	steps := []struct {
		class       string
		tuple       relation.Tuple // nil: delete the oldest
		added, gone []string       // rule names
	}{
		{"Goal", relation.Tuple{value.OfSym("Simplify"), value.OfSym("e1")}, nil, nil},
		{"Expression", relation.Tuple{value.OfSym("e1"), value.OfInt(0), value.OfSym("+"), value.OfInt(7)}, []string{"PlusOX"}, nil},
		{"Expression", relation.Tuple{value.OfSym("e1"), value.OfInt(0), value.OfSym("*"), value.OfInt(9)}, []string{"TimesOX"}, nil},
		{"Goal", nil, nil, []string{"PlusOX", "TimesOX"}},
	}
	rulesOf := func(keys []string) []string {
		var out []string
		for _, k := range keys {
			out = append(out, k[:strings.IndexByte(k, '|')])
		}
		sort.Strings(out)
		return out
	}
	for i, st := range steps {
		before := cs.Keys()
		if st.tuple != nil {
			s.insert(st.class, st.tuple)
		} else {
			s.deleteOldest(st.class)
		}
		after := cs.Keys()
		if got := rulesOf(diffKeys(after, before)); !reflect.DeepEqual(got, st.added) {
			t.Errorf("Fig. 2 step %d (%s): added %v, want %v", i, st.class, got, st.added)
		}
		if got := rulesOf(diffKeys(before, after)); !reflect.DeepEqual(got, st.gone) {
			t.Errorf("Fig. 2 step %d (%s): removed %v, want %v", i, st.class, got, st.gone)
		}
	}

	desc := s.matcher.(*rete.Network).Describe()
	if !strings.Contains(desc, "P[PlusOX]") || !strings.Contains(desc, "P[TimesOX]") {
		t.Errorf("Fig. 3 network lacks a production node:\n%s", desc)
	}
	if n := strings.Count(desc, "one-input chain"); n != 3 {
		t.Errorf("Fig. 3: %d alpha chains, want 3 (Goal shared)", n)
	}
}

// TestE1Shape checks §4's propagation-depth claim (and Fig. 1's chain)
// on C1∧…∧Cn: a probe deletes and re-inserts the first link of a
// complete chain. Rete's join-node activations per probe grow with n;
// the matching-pattern matcher's COND checks stay within a linear bound
// and its maintenance per probe is constant, since patterns propagate
// only to the one variable-sharing condition element.
func TestE1Shape(t *testing.T) {
	const probes = 20
	type perProbe struct{ activations, checks, maint int64 }
	measure := func(n int) (perProbe, perProbe) {
		src := workload.ChainRules(n)
		reteS, coreS := matcherSession(t, src, "rete"), matcherSession(t, src, "core")
		if d := reteS.matcher.(*rete.Network).Depth(); d != n {
			t.Errorf("n=%d: Fig. 1 network depth %d", n, d)
		}
		for _, s := range []*session{reteS, coreS} {
			for i := 0; i < n; i++ {
				s.insert(workload.ChainLink(0, i))
			}
		}
		probe := func(s *session) perProbe {
			cls, tup := workload.ChainLink(0, 0)
			before := s.stats.Snapshot()
			for p := 0; p < probes; p++ {
				s.deleteOldest(cls)
				s.insert(cls, tup)
			}
			d := s.stats.Snapshot().Diff(before)
			return perProbe{d.Get(metrics.NodeActivations) / probes, d.Get(metrics.CandidateChecks) / probes, d.Get(metrics.MaintenanceOps) / probes}
		}
		return probe(reteS), probe(coreS)
	}
	rete2, core2 := measure(2)
	rete16, core16 := measure(16)
	if rete16.activations <= rete2.activations {
		t.Errorf("rete activations per probe should grow with n: n=2 %d, n=16 %d", rete2.activations, rete16.activations)
	}
	if core16.checks > 2*16+4 {
		t.Errorf("core COND checks exceed the linear pattern bound: n=16 %d", core16.checks)
	}
	if core16.maint != core2.maint {
		t.Errorf("core maintenance per probe should stay flat: n=2 %d, n=16 %d", core2.maint, core16.maint)
	}
}

// TestE2AllMatchersProduceSameInstantiations checks §4.2.3's time claim
// on the payroll workload under churn: every matcher derives the same
// instantiations, and the matching-pattern matcher computes fewer joins
// than recomputation.
func TestE2AllMatchersProduceSameInstantiations(t *testing.T) {
	churn := workload.PayrollOps(42, 200, 0.25)
	src := workload.PayrollRules(10, false)
	inst, joins := map[string]int64{}, map[string]int64{}
	for _, name := range []string{"rete", "requery", "core", "marker", "ptree"} {
		s := matcherSession(t, src, name)
		s.apply(churn)
		inst[name] = s.stats.Get(metrics.Instantiations)
		joins[name] = s.stats.Get(metrics.JoinsComputed)
	}
	for name, n := range inst {
		if n != inst["rete"] || n == 0 {
			t.Errorf("instantiation counts disagree or are zero: %v (%s)", inst, name)
		}
	}
	if joins["core"] >= joins["requery"] {
		t.Errorf("core joins (%d) should undercut requery joins (%d)", joins["core"], joins["requery"])
	}
}

// TestE3Shape checks §4.2.3's space claim on the payroll workload: the
// re-evaluating matcher stores nothing, while matching patterns, rule
// markers and Rete tokens are stored state, the compacted patterns far
// fewer than the tokens.
func TestE3Shape(t *testing.T) {
	stream := workload.PayrollOps(7, 400, 0) // insert-only
	src := workload.PayrollRules(10, false)
	stored := map[string]int64{}
	for _, name := range []string{"requery", "marker", "rete", "core"} {
		s := matcherSession(t, src, name)
		s.apply(stream)
		sn := s.stats.Snapshot()
		stored[name] = sn.Get(metrics.TokensStored) + sn.Get(metrics.PatternsStored) + sn.Get(metrics.CondTuplesStored)
		switch m := s.matcher.(type) {
		case *rete.Network:
			stored[name] = int64(m.TokenCount())
		case *recheck.Matcher:
			switch name {
			case "core":
				stored[name] = int64(m.PatternCount())
			case "marker":
				stored[name] = int64(m.MarkCount())
			}
		}
	}
	if stored["requery"] != 0 {
		t.Errorf("requery stores %d items, want 0", stored["requery"])
	}
	if stored["core"] == 0 || stored["marker"] == 0 || stored["core"] >= stored["rete"] {
		t.Errorf("want 0 < core patterns < rete tokens and marker > 0: %v", stored)
	}
}

// TestE4FalseDropsGrowWithOverlap checks §2.3/§3.2: with marker-based
// locking, overlapping condition read sets wake rules that then fail,
// and the waste grows with overlap; the matching-pattern matcher stays
// below it.
func TestE4FalseDropsGrowWithOverlap(t *testing.T) {
	falseDrops := func(name string, overlap float64) int64 {
		s := matcherSession(t, workload.OverlapRules(20, overlap), name)
		s.apply(workload.OverlapOps(11, 200))
		return s.stats.Get(metrics.FalseDrops)
	}
	markerLow, markerHigh := falseDrops("marker", 0), falseDrops("marker", 0.9)
	if markerHigh <= markerLow {
		t.Errorf("marker false drops should grow with overlap: %d → %d", markerLow, markerHigh)
	}
	if coreHigh := falseDrops("core", 0.9); coreHigh >= markerHigh {
		t.Errorf("core false drops (%d) should undercut marker (%d)", coreHigh, markerHigh)
	}
}

// TestE9MatchersAgree checks §4.2.2 ("negated conditions can be supported
// easily"): under insert/delete churn over a negated rule, every matcher
// converges to the same conflict set.
func TestE9MatchersAgree(t *testing.T) {
	const src = `
(literalize Emp name dno)
(literalize Dept dno dname)
(p Orphan (Emp ^name <n> ^dno <d>) - (Dept ^dno <d>) --> (halt))
(p Staffed (Dept ^dno <d> ^dname <m>) (Emp ^dno <d>) --> (halt))
`
	r := rand.New(rand.NewSource(99))
	var stream []workload.Op
	for i, live := 0, 0; i < 150; i++ {
		cls := "Emp"
		if r.Intn(2) == 0 {
			cls = "Dept"
		}
		switch {
		case live > 0 && r.Float64() < 0.35:
			stream = append(stream, workload.Op{Delete: true, Class: cls})
			live--
			continue
		case cls == "Dept":
			stream = append(stream, workload.Op{Class: cls, Tuple: relation.Tuple{value.OfInt(int64(r.Intn(6))), value.OfSym("d")}})
		default:
			stream = append(stream, workload.Op{Class: cls, Tuple: relation.Tuple{value.OfSym(fmt.Sprintf("e%d", i)), value.OfInt(int64(r.Intn(6)))}})
		}
		live++
	}
	var reference []string
	for _, name := range matchers.Names() {
		s := matcherSession(t, src, name)
		s.apply(stream)
		keys := s.matcher.ConflictSet().Keys()
		if reference == nil {
			reference = keys
			if len(keys) == 0 {
				t.Fatal("negation churn left an empty conflict set")
			}
		} else if !reflect.DeepEqual(keys, reference) {
			t.Errorf("%s: final conflict set differs from %s (%d vs %d entries)", name, matchers.Names()[0], len(keys), len(reference))
		}
	}
}

// TestE10IncrementalCheaper checks §2.3/§6: the rule machinery maintains
// a materialized view incrementally, touching far fewer tuples than
// recomputing the view after every update, and both agree on its rows.
func TestE10IncrementalCheaper(t *testing.T) {
	const src = `
(literalize Emp name salary dno)
(literalize Dept dno dname)
(p ToyStaff
    (Emp ^name <n> ^salary <s> ^dno <d>)
    (Dept ^dno <d> ^dname Toy)
  -->)
`
	var ops []workload.Op
	for d := 0; d < 10; d++ {
		name := "Toy"
		if d%2 == 1 {
			name = "Shoe"
		}
		ops = append(ops, workload.Op{Class: "Dept", Tuple: relation.Tuple{value.OfInt(int64(d)), value.OfSym(name)}})
	}
	r := rand.New(rand.NewSource(5))
	for i, live := len(ops), 0; i < 150; i++ {
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

	var mgr *view.Manager
	inc := newSession(t, src, func(_ *rules.Set, db *relation.DB, _ *conflict.Set, stats *metrics.Set) (sink, error) {
		var err error
		mgr, err = view.NewManager(src, db, stats)
		return mgr, err
	})
	inc.apply(ops)
	var baseline *recompute
	re := newSession(t, src, func(set *rules.Set, db *relation.DB, _ *conflict.Set, stats *metrics.Set) (sink, error) {
		baseline = &recompute{db: db, rule: set.Rules[0], stats: stats}
		return baseline, nil
	})
	re.apply(ops)

	v, _ := mgr.View("ToyStaff")
	if v.Len() != baseline.rows {
		t.Errorf("incremental view has %d rows, recomputation %d", v.Len(), baseline.rows)
	}
	incScans, reScans := inc.stats.Get(metrics.TuplesScanned), re.stats.Get(metrics.TuplesScanned)
	if incScans >= reScans {
		t.Errorf("incremental scans (%d) should undercut recomputation (%d)", incScans, reScans)
	}
}

// recompute is the Buneman–Clemons baseline of E10: after every WM change
// it evaluates the view's qualification from scratch.
type recompute struct {
	db    *relation.DB
	rule  *rules.Rule
	stats *metrics.Set
	rows  int
}

func (r *recompute) Apply(*relation.Delta) error { return r.eval() }

func (r *recompute) eval() error {
	r.rows = 0
	joiner.Enumerate(r.db, r.rule, nil, r.stats, func([]relation.TupleID, []relation.Tuple, rules.Bindings) { r.rows++ })
	return nil
}

// TestE11TreeFindsSameCandidates checks §4.2.3's predicate-indexing
// claim: the R-tree over condition rectangles returns exactly the
// conditions a linear COND scan finds, while inspecting fewer of them.
func TestE11TreeFindsSameCandidates(t *testing.T) {
	const conditions, probes = 200, 100
	set, _, err := rules.CompileSource(workload.OverlapRules(conditions, 0))
	if err != nil {
		t.Fatal(err)
	}
	stats := &metrics.Set{}
	ix := ptree.NewIndex(set, stats)
	r := rand.New(rand.NewSource(3))
	found := 0
	for p := 0; p < probes; p++ {
		tup := relation.Tuple{value.OfSym("e"), value.OfInt(int64(r.Intn(10000))), value.OfInt(int64(r.Intn(5)))}
		tree := map[*rules.CE]bool{}
		for _, ce := range ix.CandidatesFor("Emp", tup) {
			tree[ce] = true
		}
		scan := map[*rules.CE]bool{}
		for _, ce := range set.ByClass["Emp"] {
			if ce.MatchAlpha(tup) {
				scan[ce] = true
			}
		}
		if !reflect.DeepEqual(tree, scan) {
			t.Fatalf("probe %v: R-tree finds %d conditions, linear scan %d", tup, len(tree), len(scan))
		}
		found += len(scan)
	}
	if found == 0 {
		t.Fatal("no probe matched any condition")
	}
	if visited, scanned := stats.Get(metrics.IndexLookups), int64(probes*len(set.ByClass["Emp"])); visited >= scanned {
		t.Errorf("R-tree visited %d entries, linear scan checks %d", visited, scanned)
	}
}

// TestE12SharedNetworkWins checks the §6 multiple-query-optimization
// claim: rule families sharing a two-condition prefix, compiled with the
// prefix shared, cut node activations and stored tokens against one
// chain per rule, without changing the conflict set.
func TestE12SharedNetworkWins(t *testing.T) {
	var b strings.Builder
	b.WriteString("(literalize Emp name age salary dno)\n(literalize Dept dno dname floor)\n")
	for f := 0; f < 4; f++ {
		for v := 0; v < 3; v++ {
			fmt.Fprintf(&b, "(p fam%d-v%d (Emp ^salary > %d ^dno <d>) (Dept ^dno <d> ^floor %d) (Dept ^dname dept%d ^dno <d2>) --> (remove 1))\n",
				f, v, f*500, f%5+1, v)
		}
	}
	stream := workload.PayrollOps(21, 300, 0.2)
	unshared := newSession(t, b.String(), func(set *rules.Set, _ *relation.DB, cs *conflict.Set, stats *metrics.Set) (sink, error) {
		return matcherSink{rete.NewUnshared(set, cs, stats)}, nil
	})
	shared := matcherSession(t, b.String(), "rete")
	unshared.apply(stream)
	shared.apply(stream)
	if !reflect.DeepEqual(unshared.matcher.ConflictSet().Keys(), shared.matcher.ConflictSet().Keys()) {
		t.Fatal("shared and unshared networks end with different conflict sets")
	}
	for _, c := range []metrics.Counter{metrics.NodeActivations, metrics.TokensStored} {
		if plain, sh := unshared.stats.Get(c), shared.stats.Get(c); sh >= plain {
			t.Errorf("sharing should cut %s: unshared %d, shared %d", c, plain, sh)
		}
	}
}
