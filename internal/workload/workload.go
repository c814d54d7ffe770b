// Package workload generates the synthetic rule programs and update
// streams driving the experiment harness: the payroll database of the
// paper's Example 3, the C1∧…∧Cn chain of Figure 1, the algebra
// simplification rules of Example 2, overlapping-condition rule sets for
// the false-drop experiment, and independent/skewed task pools for the
// concurrency experiments.
package workload

import (
	"fmt"
	"math/rand"
	"strings"

	"prodsys/internal/relation"
	"prodsys/internal/value"
)

// Op is one working-memory change: an insertion carrying a tuple, or a
// deletion of a previously inserted live tuple (resolved by the driver).
type Op struct {
	Delete bool
	Class  string
	Tuple  relation.Tuple // insertions only
}

// PayrollRules builds a rule set of n two-way-join rules over Emp/Dept,
// in the shape of Example 3: rule i matches employees of a salary band in
// departments on a given floor. Action "remove" consumes the employee;
// action "halt"-free match-only variants keep the conflict set growing.
func PayrollRules(n int, consuming bool) string {
	var b strings.Builder
	b.WriteString("(literalize Emp name age salary dno)\n")
	b.WriteString("(literalize Dept dno dname floor)\n")
	for i := 0; i < n; i++ {
		lo := (i % 20) * 500
		floor := i%5 + 1
		action := "(make Dept ^dno -1 ^dname log ^floor 0)"
		if consuming {
			action = "(remove 1)"
		}
		fmt.Fprintf(&b, `(p pay-%d
    (Emp ^salary > %d ^dno <d>)
    (Dept ^dno <d> ^floor %d)
  -->
    %s)
`, i, lo, floor, action)
	}
	return b.String()
}

// PayrollOps generates a deterministic stream of n operations over the
// payroll classes: inserts of employees and departments with deleteFrac
// of operations deleting a live tuple.
func PayrollOps(seed int64, n int, deleteFrac float64) []Op {
	r := rand.New(rand.NewSource(seed))
	live := 0
	ops := make([]Op, 0, n)
	for i := 0; i < n; i++ {
		if live > 0 && r.Float64() < deleteFrac {
			cls := "Emp"
			if r.Intn(4) == 0 {
				cls = "Dept"
			}
			ops = append(ops, Op{Delete: true, Class: cls})
			live--
			continue
		}
		if r.Intn(4) == 0 {
			ops = append(ops, Op{Class: "Dept", Tuple: relation.Tuple{
				value.OfInt(int64(r.Intn(50))),
				value.OfSym(fmt.Sprintf("dept%d", r.Intn(10))),
				value.OfInt(int64(r.Intn(5) + 1)),
			}})
		} else {
			ops = append(ops, Op{Class: "Emp", Tuple: relation.Tuple{
				value.OfSym(fmt.Sprintf("e%d", i)),
				value.OfInt(int64(20 + r.Intn(45))),
				value.OfInt(int64(r.Intn(10000))),
				value.OfInt(int64(r.Intn(50))),
			}})
		}
		live++
	}
	return ops
}

// ChainRules builds the Figure 1 workload: one rule whose LHS is a chain
// C0 ∧ C1 ∧ … ∧ Cn-1, adjacent condition elements joined on a shared
// variable.
func ChainRules(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "(literalize K%d v w)\n", i)
	}
	b.WriteString("(p chain\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "    (K%d ^v <x%d> ^w <x%d>)\n", i, i, i+1)
	}
	b.WriteString("  -->\n    (make K0 ^v -1 ^w -1))\n")
	return b.String()
}

// ChainLink builds the tuple of class Ki completing one link of the
// chain for the given chain instance c: (c+i, c+i+1).
func ChainLink(c, i int) (string, relation.Tuple) {
	return fmt.Sprintf("K%d", i), relation.Tuple{
		value.OfInt(int64(c*1000 + i)),
		value.OfInt(int64(c*1000 + i + 1)),
	}
}

// SimplifyRules is the PlusOX/TimesOX program of Example 2.
func SimplifyRules() string {
	return `
(literalize Goal type object)
(literalize Expression name arg1 op arg2)
(p PlusOX
    (Goal ^type Simplify ^object <N>)
    (Expression ^name <N> ^arg1 0 ^op + ^arg2 <X>)
  -->
    (modify 2 ^op nil ^arg1 nil))
(p TimesOX
    (Goal ^type Simplify ^object <N>)
    (Expression ^name <N> ^arg1 0 ^op * ^arg2 <X>)
  -->
    (modify 2 ^op nil ^arg1 nil))
`
}

// SimplifyFacts generates n goal/expression pairs, frac of them
// simplifiable (arg1 = 0).
func SimplifyFacts(seed int64, n int, frac float64) []Op {
	r := rand.New(rand.NewSource(seed))
	ops := make([]Op, 0, 2*n)
	for i := 0; i < n; i++ {
		name := value.OfSym(fmt.Sprintf("expr%d", i))
		ops = append(ops, Op{Class: "Goal", Tuple: relation.Tuple{value.OfSym("Simplify"), name}})
		arg1 := value.OfInt(int64(r.Intn(9) + 1))
		if r.Float64() < frac {
			arg1 = value.OfInt(0)
		}
		op := "+"
		if r.Intn(2) == 0 {
			op = "*"
		}
		ops = append(ops, Op{Class: "Expression", Tuple: relation.Tuple{
			name, arg1, value.OfSym(op), value.OfInt(int64(r.Intn(100))),
		}})
	}
	return ops
}

// OverlapRules builds n two-way-join rules whose salary intervals overlap
// pairwise by roughly the given factor in [0,1): with overlap 0 the
// intervals partition the salary domain; as overlap grows every interval
// covers more of its neighbours, so a single insertion hits the read set
// of more rules — the sharing that drives Basic Locking false drops
// (§2.3). Each rule i joins the employee's department against a specific
// department name; only half of those departments ever exist, so a woken
// rule often has no completing join — a false drop.
func OverlapRules(n int, overlap float64) string {
	var b strings.Builder
	b.WriteString("(literalize Emp name salary dno)\n")
	b.WriteString("(literalize Dept dno dname)\n")
	const domain = 10000
	width := float64(domain) / float64(n)
	span := width * (1 + overlap*float64(n-1))
	for i := 0; i < n; i++ {
		lo := int(float64(i) * width)
		hi := lo + int(span)
		if hi > domain {
			hi = domain
		}
		fmt.Fprintf(&b, `(p band-%d
    (Emp ^salary > %d ^salary < %d ^dno <d>)
    (Dept ^dno <d> ^dname dept%d)
  -->
    (remove 1))
`, i, lo, hi, i%10)
	}
	return b.String()
}

// OverlapOps generates employee inserts with salaries uniform over the
// domain, plus a fixed set of departments inserted first. Only the
// departments named dept0..dept4 exist, so rules joining dept5..dept9
// can never complete.
func OverlapOps(seed int64, n int) []Op {
	r := rand.New(rand.NewSource(seed))
	ops := make([]Op, 0, n+5)
	for d := 0; d < 5; d++ {
		ops = append(ops, Op{Class: "Dept", Tuple: relation.Tuple{
			value.OfInt(int64(d)), value.OfSym(fmt.Sprintf("dept%d", d)),
		}})
	}
	for i := 0; i < n; i++ {
		ops = append(ops, Op{Class: "Emp", Tuple: relation.Tuple{
			value.OfSym(fmt.Sprintf("e%d", i)),
			value.OfInt(int64(r.Intn(10000))),
			value.OfInt(int64(r.Intn(5))),
		}})
	}
	return ops
}

// TaskRules builds the concurrency workload of E7: k task classes, one
// consuming rule per class. With skewed=true all rules consume from a
// single class, collapsing available parallelism (the paper's worst case:
// "this will reduce to the time taken for a serial execution").
func TaskRules(k int, skewed bool) string {
	var b strings.Builder
	b.WriteString("(literalize Done id)\n")
	classes := k
	if skewed {
		classes = 1
	}
	for i := 0; i < classes; i++ {
		fmt.Fprintf(&b, "(literalize T%d id)\n", i)
	}
	for i := 0; i < k; i++ {
		cls := i
		if skewed {
			cls = 0
		}
		fmt.Fprintf(&b, "(p consume-%d (T%d ^id <x>) --> (remove 1) (make Done ^id <x>))\n", i, cls)
	}
	return b.String()
}

// TaskFacts generates m tasks spread across the k task classes (one class
// when skewed).
func TaskFacts(k int, skewed bool, m int) []Op {
	classes := k
	if skewed {
		classes = 1
	}
	ops := make([]Op, 0, m)
	for i := 0; i < m; i++ {
		ops = append(ops, Op{
			Class: fmt.Sprintf("T%d", i%classes),
			Tuple: relation.Tuple{value.OfInt(int64(i))},
		})
	}
	return ops
}

// ManufacturingRules is a small forward-chaining job-shop program: orders
// advance through cut, drill and polish stations; a station can reject an
// order lacking its prerequisite.
func ManufacturingRules() string {
	return `
(literalize Order id stage)
(literalize Station name free)
(literalize Log id stage)

(p start-cut
    (Order ^id <o> ^stage new)
    (Station ^name cutter ^free yes)
  -->
    (modify 1 ^stage cut)
    (make Log ^id <o> ^stage cut))

(p cut-to-drill
    (Order ^id <o> ^stage cut)
    (Station ^name drill ^free yes)
  -->
    (modify 1 ^stage drilled)
    (make Log ^id <o> ^stage drilled))

(p drill-to-polish
    (Order ^id <o> ^stage drilled)
    (Station ^name polisher ^free yes)
  -->
    (modify 1 ^stage done)
    (make Log ^id <o> ^stage done))
`
}

// ManufacturingFacts generates n orders plus the three stations.
func ManufacturingFacts(n int) []Op {
	ops := []Op{
		{Class: "Station", Tuple: relation.Tuple{value.OfSym("cutter"), value.OfSym("yes")}},
		{Class: "Station", Tuple: relation.Tuple{value.OfSym("drill"), value.OfSym("yes")}},
		{Class: "Station", Tuple: relation.Tuple{value.OfSym("polisher"), value.OfSym("yes")}},
	}
	for i := 0; i < n; i++ {
		ops = append(ops, Op{Class: "Order", Tuple: relation.Tuple{
			value.OfInt(int64(i)), value.OfSym("new"),
		}})
	}
	return ops
}
