package recheck

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"prodsys/internal/metrics"
	"prodsys/internal/value"
)

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

// TestExample5PatternAccumulation replays the exact insertion sequence of
// Example 5 and checks the COND relations accumulate matching patterns as
// the paper's tables show.
func TestExample5PatternAccumulation(t *testing.T) {
	f := setup(t, threeWaySrc, NewCore)
	// Originals only: one COND tuple per positive CE.
	if got := f.st.Get(metrics.CondTuplesStored); got != 3 {
		t.Fatalf("original COND tuples = %d, want 3", got)
	}
	if f.m.PatternCount() != 0 {
		t.Fatalf("no matching patterns yet, got %d", f.m.PatternCount())
	}

	f.insert(t, "B", value.OfInt(4), value.OfInt(5), value.OfSym("b"))
	// B(4,5,b) specializes COND-A with x=4 and COND-C with y=5.
	condA := strings.Join(dumpCond(f.m, "A"), "\n")
	if !strings.Contains(condA, "x=4") {
		t.Fatalf("COND-A should hold pattern x=4 after B(4,5,b):\n%s", condA)
	}

	f.insert(t, "C", value.OfSym("c"), value.OfInt(7), value.OfInt(8))
	// C(c,7,8) adds z=8 to COND-A (paper row "(x,a,8) 01").
	condA = strings.Join(dumpCond(f.m, "A"), "\n")
	if !strings.Contains(condA, "z=8") {
		t.Fatalf("COND-A should hold pattern z=8 after C(c,7,8):\n%s", condA)
	}
	// COND-B gains y=7 from C (paper row "(x,7,b) 01").
	condB := strings.Join(dumpCond(f.m, "B"), "\n")
	if !strings.Contains(condB, "y=7") {
		t.Fatalf("COND-B should hold pattern y=7 after C(c,7,8):\n%s", condB)
	}

	f.insert(t, "A", value.OfInt(4), value.OfSym("a"), value.OfInt(8))
	if f.cs.Len() != 0 {
		t.Fatalf("nothing should fire yet: %v", f.cs.Keys())
	}
	// COND-B now holds A's contribution x=4 alongside C's y=7 (the paper
	// additionally merges them into the doubly-marked row "(4,7,b) 11";
	// this implementation keeps the singly-sourced rows and unions their
	// marks at detection time — see the cond type comment).
	condB = strings.Join(dumpCond(f.m, "B"), "\n")
	if !strings.Contains(condB, "x=4") || !strings.Contains(condB, "y=7") {
		t.Fatalf("COND-B should hold x=4 and y=7 patterns:\n%s", condB)
	}

	f.insert(t, "B", value.OfInt(4), value.OfInt(7), value.OfSym("b"))
	keys := f.cs.Keys()
	if len(keys) != 1 || keys[0] != "Rule-1|1|2|1" {
		t.Fatalf("conflict set = %v", keys)
	}
}

func TestDetectionIsSingleRelationSearch(t *testing.T) {
	// The final insert must not recompute a join to *detect* the firing:
	// detection happens against COND-B alone, then one verification join
	// materializes the tuples.
	f := setup(t, threeWaySrc, NewCore)
	f.insert(t, "B", value.OfInt(4), value.OfInt(5), value.OfSym("b"))
	f.insert(t, "C", value.OfSym("c"), value.OfInt(7), value.OfInt(8))
	f.insert(t, "A", value.OfInt(4), value.OfSym("a"), value.OfInt(8))
	joinsBefore := f.st.Get(metrics.JoinsComputed)
	f.insert(t, "B", value.OfInt(4), value.OfInt(7), value.OfSym("b"))
	joins := f.st.Get(metrics.JoinsComputed) - joinsBefore
	// One Enumerate call: at most one join step per condition element.
	if joins > 3 {
		t.Fatalf("verification should be a single bounded join, got %d join steps", joins)
	}
	// The compacted single-source patterns allow one false drop earlier
	// in the sequence (at A(4,a,8), whose B and C marks are individually
	// compatible but jointly not); the final insert itself is exact.
	if fd := f.st.Get(metrics.FalseDrops); fd > 1 {
		t.Fatalf("false drops = %d, want ≤ 1", fd)
	}
}

func TestDeletionWithdrawsSupport(t *testing.T) {
	f := setup(t, threeWaySrc, NewCore)
	b1 := f.insert(t, "B", value.OfInt(4), value.OfInt(7), value.OfSym("b"))
	f.insert(t, "C", value.OfSym("c"), value.OfInt(7), value.OfInt(8))
	grown := f.m.PatternCount()
	if grown == 0 {
		t.Fatal("patterns should accumulate")
	}
	f.remove(t, "B", b1)
	f.remove(t, "C", 1)
	if got := f.m.PatternCount(); got != 0 {
		t.Fatalf("patterns after removing all support = %d:\nA: %v\nB: %v\nC: %v",
			got, dumpCond(f.m, "A"), dumpCond(f.m, "B"), dumpCond(f.m, "C"))
	}
}

func TestSharedSupporterSurvivesPartialDelete(t *testing.T) {
	// Two B tuples share the pattern x=4 in COND-A; deleting one leaves
	// the pattern supported (the paper's counter argument, §4.2.2).
	f := setup(t, threeWaySrc, NewCore)
	b1 := f.insert(t, "B", value.OfInt(4), value.OfInt(5), value.OfSym("b"))
	f.insert(t, "B", value.OfInt(4), value.OfInt(6), value.OfSym("b"))
	f.remove(t, "B", b1)
	condA := strings.Join(dumpCond(f.m, "A"), "\n")
	if !strings.Contains(condA, "x=4") {
		t.Fatalf("pattern x=4 should survive one deletion:\n%s", condA)
	}
}

func TestFalseDropCounted(t *testing.T) {
	// Construct a false drop: two C tuples contribute y=7 patterns with
	// different z; the combined pattern in COND-B can carry supporters
	// whose full combination does not join.
	f := setup(t, threeWaySrc, NewCore)
	f.insert(t, "C", value.OfSym("c"), value.OfInt(7), value.OfInt(8))
	f.insert(t, "C", value.OfSym("c"), value.OfInt(7), value.OfInt(9))
	f.insert(t, "A", value.OfInt(4), value.OfSym("a"), value.OfInt(8))
	// Delete the z=8 C tuple: COND-B patterns may still look fully marked
	// through the z=9 supporter.
	f.remove(t, "C", 1)
	f.insert(t, "B", value.OfInt(4), value.OfInt(7), value.OfSym("b"))
	// Whatever the pattern state, the conflict set must be exact:
	if f.cs.Len() != 0 {
		t.Fatalf("verification must reject: %v", f.cs.Keys())
	}
}

func TestSingleCERuleFiresImmediately(t *testing.T) {
	f := setup(t, `
(literalize A x)
(p Solo (A ^x > 5) --> (halt))`, NewCore)
	f.insert(t, "A", value.OfInt(3))
	if f.cs.Len() != 0 {
		t.Fatal("3 should not fire")
	}
	f.insert(t, "A", value.OfInt(9))
	if keys := f.cs.Keys(); len(keys) != 1 || keys[0] != "Solo|2" {
		t.Fatalf("conflict set = %v", keys)
	}
}

func TestNegationRetractAndUnblock(t *testing.T) {
	f := setup(t, `
(literalize Emp dno)
(literalize Dept dno)
(p Orphan (Emp ^dno <d>) - (Dept ^dno <d>) --> (halt))`, NewCore)
	f.insert(t, "Emp", value.OfInt(7))
	if f.cs.Len() != 1 {
		t.Fatalf("orphan should fire: %v", f.cs.Keys())
	}
	d := f.insert(t, "Dept", value.OfInt(7))
	if f.cs.Len() != 0 {
		t.Fatalf("blocker should retract: %v", f.cs.Keys())
	}
	f.remove(t, "Dept", d)
	if f.cs.Len() != 1 {
		t.Fatalf("unblock should re-derive: %v", f.cs.Keys())
	}
}

func TestSpaceAccountingCounters(t *testing.T) {
	f := setup(t, threeWaySrc, NewCore)
	f.insert(t, "B", value.OfInt(4), value.OfInt(5), value.OfSym("b"))
	if f.st.Get(metrics.PatternsStored) == 0 {
		t.Error("PatternsStored should move")
	}
	f.remove(t, "B", 1)
	if f.st.Get(metrics.PatternsDeleted) == 0 {
		t.Error("PatternsDeleted should move")
	}
}

func TestDumpCondUnknownClass(t *testing.T) {
	f := setup(t, threeWaySrc, NewCore)
	if got := dumpCond(f.m, "Nope"); got != nil {
		t.Fatalf("unknown class dump = %v", got)
	}
}

func TestAccessors(t *testing.T) {
	f := setup(t, threeWaySrc, NewCore)
	if f.m.ConflictSet() != f.cs {
		t.Error("ConflictSet accessor")
	}
}

// dumpCond renders one class's COND relation, mirroring the tables of
// Example 5 in the paper.
func dumpCond(m *Matcher, class string) []string {
	c := m.f.(*cond)
	st := c.stores[class]
	if st == nil {
		return nil
	}
	var out []string
	for _, ci := range st.conds {
		out = append(out, fmt.Sprintf("%s CEN=%d {} marks=[] (original)", ci.ce.Rule.Name, ci.ce.CEN()))
		for _, sh := range ci.shapes {
			sh.each(func(p *pattern) {
				marks := make([]string, 0, len(p.support))
				for _, s := range p.support {
					marks = append(marks, fmt.Sprintf("%s:%d×%d", ci.ce.Rule.CEs[s.src].Class, s.src+1, len(s.ids)))
				}
				sort.Strings(marks)
				var b strings.Builder
				p.writeBindings(&b)
				out = append(out, fmt.Sprintf("%s CEN=%d {%s} marks=%v", ci.ce.Rule.Name, ci.ce.CEN(), b.String(), marks))
			})
		}
	}
	sort.Strings(out)
	return out
}
