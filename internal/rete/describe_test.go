package rete

import (
	"strings"
	"testing"

	"prodsys/internal/conflict"
	"prodsys/internal/rules"
)

func TestDescribeStructure(t *testing.T) {
	set, _, err := rules.CompileSource(`
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
    (modify 2 ^op nil ^arg1 nil))`)
	if err != nil {
		t.Fatal(err)
	}
	net := New(set, conflict.NewSet(set, nil), nil)
	out := net.Describe()
	for _, want := range []string{
		"root",
		"class Goal",
		"class Expression",
		"P[PlusOX]",
		"P[TimesOX]",
		"two-input node",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Describe missing %q:\n%s", want, out)
		}
	}
	if net.Depth() != 2 {
		t.Errorf("Depth = %d", net.Depth())
	}
}

func TestDescribeNegativeNode(t *testing.T) {
	set, _, err := rules.CompileSource(`
(literalize A x)
(literalize B x)
(p R (A ^x <v>) - (B ^x <v>) --> (halt))`)
	if err != nil {
		t.Fatal(err)
	}
	net := New(set, conflict.NewSet(set, nil), nil)
	if !strings.Contains(net.Describe(), "negative node") {
		t.Errorf("Describe missing negative node:\n%s", net.Describe())
	}
}

func TestRuleOfTraversal(t *testing.T) {
	// ruleOf must find the production name through chains with beta
	// memories, negative nodes and trailing joins.
	set, _, err := rules.CompileSource(`
(literalize A x)
(literalize B x)
(literalize C x)
(p deep (A ^x <v>) - (B ^x <v>) (C ^x <v>) --> (halt))`)
	if err != nil {
		t.Fatal(err)
	}
	net := New(set, conflict.NewSet(set, nil), nil)
	out := net.Describe()
	if !strings.Contains(out, "of deep") {
		t.Errorf("join node not attributed to rule deep:\n%s", out)
	}
}
