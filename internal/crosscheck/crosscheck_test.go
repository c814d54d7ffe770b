// Package crosscheck is the matcher conformance suite: every matcher in
// the internal/matchers table — the Rete network, the simplified
// re-evaluation algorithm, the matching-pattern algorithm and the
// [STON86a] baselines — must maintain an identical conflict set over
// arbitrary insert/delete streams, tuple-at-a-time and batched, and audit
// clean. requery is a direct transcription of the declarative LHS
// semantics and serves as the oracle. The suite iterates the table, so a
// newly registered matcher is held to it by construction.
package crosscheck

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"prodsys/internal/conflict"
	"prodsys/internal/match"
	"prodsys/internal/matchers"
	"prodsys/internal/metrics"
	"prodsys/internal/relation"
	"prodsys/internal/rules"
	"prodsys/internal/value"
)

// session drives a WM catalog and a bank of matchers in lockstep.
type session struct {
	t        *testing.T
	set      *rules.Set
	db       *relation.DB
	stats    *metrics.Set
	matchers []match.Matcher
	live     map[string][]relation.TupleID
}

func newSession(t *testing.T, src string) *session {
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
	return &session{t: t, set: set, db: db, stats: stats, live: map[string][]relation.TupleID{}, matchers: allMatchers(t, set, db)}
}

// allMatchers builds one of every registered matcher over the catalog,
// each with its own conflict set.
func allMatchers(t *testing.T, set *rules.Set, db *relation.DB) []match.Matcher {
	t.Helper()
	var out []match.Matcher
	for _, name := range matchers.Names() {
		m, err := matchers.New(name, set, db, conflict.NewSet(set, nil), &metrics.Set{})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, m)
	}
	return out
}

func (s *session) insert(class string, vals ...value.V) relation.TupleID {
	s.t.Helper()
	rel := s.db.MustGet(class)
	id, err := rel.Insert(relation.Tuple(vals))
	if err != nil {
		s.t.Fatal(err)
	}
	tup, _ := rel.Get(id)
	for _, m := range s.matchers {
		if err := m.InsertBatch(class, []relation.DeltaEntry{{ID: id, Tuple: tup}}); err != nil {
			s.t.Fatalf("%s insert: %v", m.Name(), err)
		}
	}
	s.live[class] = append(s.live[class], id)
	return id
}

func (s *session) delete(class string, id relation.TupleID) {
	s.t.Helper()
	rel := s.db.MustGet(class)
	tup, err := rel.Delete(id)
	if err != nil {
		s.t.Fatal(err)
	}
	for _, m := range s.matchers {
		if err := m.DeleteBatch(class, []relation.DeltaEntry{{ID: id, Tuple: tup}}); err != nil {
			s.t.Fatalf("%s delete: %v", m.Name(), err)
		}
	}
	list := s.live[class]
	for i, x := range list {
		if x == id {
			s.live[class] = append(list[:i], list[i+1:]...)
			break
		}
	}
}

// agree asserts all matchers hold the oracle's conflict set and
// returns the oracle's keys.
func (s *session) agree(context string) []string {
	s.t.Helper()
	var want []string // requery is the oracle (declarative transcription)
	for _, m := range s.matchers {
		if m.Name() == "requery" {
			want = m.ConflictSet().Keys()
		}
	}
	for _, m := range s.matchers {
		got := m.ConflictSet().Keys()
		if !reflect.DeepEqual(got, want) {
			s.t.Fatalf("%s: %s conflict set = %v, oracle = %v", context, m.Name(), got, want)
		}
	}
	return want
}

const payrollSrc = `
(literalize Emp name age salary dno manager)
(literalize Dept dno dname floor manager)
(p R1
    (Emp ^name Mike ^salary <S> ^manager <M>)
    (Emp ^name <M> ^salary {<S1> < <S>})
  -->
    (remove 1))
(p R2
    (Emp ^dno <D>)
    (Dept ^dno <D> ^dname Toy ^floor 1)
  -->
    (remove 1))
`

func TestPayrollScriptAgreement(t *testing.T) {
	s := newSession(t, payrollSrc)
	mike := s.insert("Emp", value.OfSym("Mike"), value.OfInt(30), value.OfInt(1000), value.OfInt(1), value.OfSym("Sam"))
	s.agree("after Mike")
	sam := s.insert("Emp", value.OfSym("Sam"), value.OfInt(50), value.OfInt(900), value.OfInt(1), value.OfSym("Pat"))
	s.agree("after Sam")
	if n := s.matchers[0].ConflictSet().Len(); n != 1 {
		t.Fatalf("R1 should be applicable once, conflict set = %v", s.matchers[0].ConflictSet().Keys())
	}
	d := s.insert("Dept", value.OfInt(1), value.OfSym("Toy"), value.OfInt(1), value.OfSym("Sam"))
	s.agree("after Toy dept")
	if n := s.matchers[0].ConflictSet().Len(); n != 3 {
		// R2 applies to both Mike and Sam (dno 1), plus R1.
		t.Fatalf("conflict set size = %d, want 3: %v", n, s.matchers[0].ConflictSet().Keys())
	}
	s.delete("Dept", d)
	s.agree("after dept removal")
	s.delete("Emp", sam)
	s.agree("after Sam removal")
	s.delete("Emp", mike)
	s.agree("after Mike removal")
	if n := s.matchers[0].ConflictSet().Len(); n != 0 {
		t.Fatalf("conflict set should be empty: %v", s.matchers[0].ConflictSet().Keys())
	}
}

const threeWaySrc = `
(literalize A a1 a2 a3)
(literalize B b1 b2 b3)
(literalize C c1 c2 c3)
(p Rule-1
    (A ^a1 <x> ^a2 a ^a3 <z>)
    (B ^b1 <x> ^b2 <y> ^b3 b)
    (C ^c1 c ^c2 <y> ^c3 <z>)
  -->
    (halt))
`

func TestExample5SequenceAgreement(t *testing.T) {
	s := newSession(t, threeWaySrc)
	s.insert("B", value.OfInt(4), value.OfInt(5), value.OfSym("b"))
	s.agree("B(4,5,b)")
	s.insert("C", value.OfSym("c"), value.OfInt(7), value.OfInt(8))
	s.agree("C(c,7,8)")
	s.insert("A", value.OfInt(4), value.OfSym("a"), value.OfInt(8))
	s.agree("A(4,a,8)")
	if s.matchers[0].ConflictSet().Len() != 0 {
		t.Fatal("nothing should fire yet")
	}
	s.insert("B", value.OfInt(4), value.OfInt(7), value.OfSym("b"))
	s.agree("B(4,7,b)")
	if s.matchers[0].ConflictSet().Len() != 1 {
		t.Fatalf("Rule-1 should fire exactly once: %v", s.matchers[0].ConflictSet().Keys())
	}
}

const negationSrc = `
(literalize Emp name dno)
(literalize Dept dno dname)
(p Orphan (Emp ^name <n> ^dno <d>) - (Dept ^dno <d>) --> (halt))
(p Staffed (Dept ^dno <d> ^dname <m>) (Emp ^dno <d>) --> (halt))
`

func TestNegationScriptAgreement(t *testing.T) {
	s := newSession(t, negationSrc)
	ann := s.insert("Emp", value.OfSym("Ann"), value.OfInt(7))
	s.agree("Ann")
	d7 := s.insert("Dept", value.OfInt(7), value.OfSym("Toy"))
	s.agree("Dept 7")
	s.insert("Emp", value.OfSym("Bob"), value.OfInt(9))
	s.agree("Bob orphan")
	s.delete("Dept", d7)
	s.agree("unblock Ann")
	s.delete("Emp", ann)
	s.agree("Ann gone")
}

const selfJoinSrc = `
(literalize A x y)
(p Self (A ^x <v>) (A ^y <v>) --> (halt))
`

func TestSelfJoinAgreement(t *testing.T) {
	s := newSession(t, selfJoinSrc)
	s.insert("A", value.OfInt(3), value.OfInt(3))
	s.agree("self pair")
	s.insert("A", value.OfInt(5), value.OfInt(3))
	s.agree("cross pair")
	s.insert("A", value.OfInt(3), value.OfInt(5))
	s.agree("triangle")
}

// randomSpec drives the fuzzing across several rule programs.
type randomSpec struct {
	name    string
	src     string
	classes map[string]func(r *rand.Rand) []value.V
}

func smallInt(r *rand.Rand) value.V { return value.OfInt(int64(r.Intn(4))) }

var specs = []randomSpec{
	{
		name: "threeway",
		src:  threeWaySrc,
		classes: map[string]func(*rand.Rand) []value.V{
			"A": func(r *rand.Rand) []value.V { return []value.V{smallInt(r), value.OfSym("a"), smallInt(r)} },
			"B": func(r *rand.Rand) []value.V { return []value.V{smallInt(r), smallInt(r), value.OfSym("b")} },
			"C": func(r *rand.Rand) []value.V { return []value.V{value.OfSym("c"), smallInt(r), smallInt(r)} },
		},
	},
	{
		name: "negation",
		src:  negationSrc,
		classes: map[string]func(*rand.Rand) []value.V{
			"Emp": func(r *rand.Rand) []value.V {
				return []value.V{value.OfSym(fmt.Sprintf("e%d", r.Intn(3))), smallInt(r)}
			},
			"Dept": func(r *rand.Rand) []value.V { return []value.V{smallInt(r), value.OfSym("Toy")} },
		},
	},
	{
		name: "selfjoin",
		src:  selfJoinSrc,
		classes: map[string]func(*rand.Rand) []value.V{
			"A": func(r *rand.Rand) []value.V { return []value.V{smallInt(r), smallInt(r)} },
		},
	},
	{
		// A cyclic variable graph over one class: every condition element
		// propagates matching patterns to two others in the same COND
		// store, and each new tuple can complete a triangle at any of
		// the three positions.
		name: "triangle",
		src: `
(literalize A x y)
(p Tri (A ^x <u> ^y <v>) (A ^x <v> ^y <w>) (A ^x <w> ^y <u>) --> (halt))`,
		classes: map[string]func(*rand.Rand) []value.V{
			"A": func(r *rand.Rand) []value.V { return []value.V{smallInt(r), smallInt(r)} },
		},
	},
	{
		name: "disjunction",
		src: `
(literalize Light color n)
(literalize Walk n)
(p stop (Light ^color << 0 1 >> ^n <k>) (Walk ^n <k>) --> (halt))
(p free (Light ^color 3 ^n <k>) - (Walk ^n <k>) --> (halt))`,
		classes: map[string]func(*rand.Rand) []value.V{
			"Light": func(r *rand.Rand) []value.V { return []value.V{smallInt(r), smallInt(r)} },
			"Walk":  func(r *rand.Rand) []value.V { return []value.V{smallInt(r)} },
		},
	},
	{
		name: "ineq-shared-var",
		src: `
(literalize M at)
(literalize L at)
(literalize B at)
(p reach (M ^at <p>) (L ^at <p>) (B ^at {<b> <> <p>}) --> (halt))
(p colocated (M ^at <p>) (B ^at <p>) --> (halt))`,
		classes: map[string]func(*rand.Rand) []value.V{
			"M": func(r *rand.Rand) []value.V { return []value.V{smallInt(r)} },
			"L": func(r *rand.Rand) []value.V { return []value.V{smallInt(r)} },
			"B": func(r *rand.Rand) []value.V { return []value.V{smallInt(r)} },
		},
	},
	{
		name: "comparisons",
		src: `
(literalize P x y)
(literalize Q x y)
(p Lt (P ^x <a> ^y <b>) (Q ^x <a> ^y > <b>) --> (halt))
(p NoQ (P ^x <a>) - (Q ^x <a> ^y <= 1) --> (halt))`,
		classes: map[string]func(*rand.Rand) []value.V{
			"P": func(r *rand.Rand) []value.V { return []value.V{smallInt(r), smallInt(r)} },
			"Q": func(r *rand.Rand) []value.V { return []value.V{smallInt(r), smallInt(r)} },
		},
	},
}

func runRandomAgreement(t *testing.T, spec randomSpec, seed int64, steps int) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	s := newSession(t, spec.src)
	classes := make([]string, 0, len(spec.classes))
	for c := range spec.classes {
		classes = append(classes, c)
	}
	// Deterministic class order for reproducibility.
	for i := 1; i < len(classes); i++ {
		for j := i; j > 0 && classes[j] < classes[j-1]; j-- {
			classes[j], classes[j-1] = classes[j-1], classes[j]
		}
	}
	for step := 0; step < steps; step++ {
		class := classes[r.Intn(len(classes))]
		if len(s.live[class]) > 0 && r.Intn(100) < 35 {
			ids := s.live[class]
			s.delete(class, ids[r.Intn(len(ids))])
		} else {
			s.insert(class, spec.classes[class](r)...)
		}
		s.agree(fmt.Sprintf("%s seed=%d step=%d", spec.name, seed, step))
	}
}

func TestRandomizedAgreement(t *testing.T) {
	for _, spec := range specs {
		spec := spec
		t.Run(spec.name, func(t *testing.T) {
			for seed := int64(1); seed <= 6; seed++ {
				runRandomAgreement(t, spec, seed, 120)
			}
		})
	}
}

func TestLongChurnAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("long churn")
	}
	runRandomAgreement(t, specs[0], 999, 600)
	runRandomAgreement(t, specs[1], 998, 600)
}
