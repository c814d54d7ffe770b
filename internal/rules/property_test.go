package rules

import (
	"math/rand"
	"testing"
	"testing/quick"

	"prodsys/internal/relation"
	"prodsys/internal/value"
)

// TestMatchConsistencyProperty: for random tuples, MatchWith success
// implies MatchPattern success under the same bindings (the pattern
// semantics only relaxes), and both agree with MatchAlpha on
// constant-only condition elements.
func TestMatchConsistencyProperty(t *testing.T) {
	set := compile(t, `
(literalize R a b c)
(p full (R ^a > 10 ^b <x> ^c {<y> < <x>}) --> (halt))
(p flat (R ^a 5 ^b 6) --> (halt))`)
	full, _ := set.RuleByName("full")
	flat, _ := set.RuleByName("flat")
	f := func(a, b, c int64) bool {
		tup := relation.Tuple{value.OfInt(a % 50), value.OfInt(b % 50), value.OfInt(c % 50)}
		ceFull := full.CEs[0]
		if _, ok := ceFull.MatchWith(tup, make(Bindings, len(full.Vars))); ok {
			if _, pok := ceFull.MatchPattern(tup, make(Bindings, len(full.Vars))); !pok {
				return false // pattern match must be a relaxation
			}
		}
		ceFlat := flat.CEs[0]
		_, wok := ceFlat.MatchWith(tup, nil)
		if wok != ceFlat.MatchAlpha(tup) {
			return false // constant-only CE: alpha is the whole test
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestRestrictionsSoundProperty: tuples returned by a selection with
// ce.Restrictions(b) must be exactly those accepted by MatchWith when
// every variable is bound.
func TestRestrictionsSoundProperty(t *testing.T) {
	set := compile(t, `
(literalize Emp name salary dno)
(literalize Dept dno)
(p r (Dept ^dno <d>) (Emp ^salary > 100 ^dno <d> ^name <n>) --> (halt))`)
	r, _ := set.RuleByName("r")
	ce := r.CEs[1]
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		b := vec(r, map[string]value.V{"d": value.OfInt(int64(rng.Intn(5)))})
		tup := relation.Tuple{
			value.OfSym("e"),
			value.OfInt(int64(rng.Intn(300))),
			value.OfInt(int64(rng.Intn(5))),
		}
		rs, free := ce.Restrictions(b)
		if len(free) != 1 || free[0] != "n" {
			t.Fatalf("free = %v", free)
		}
		_, mok := ce.MatchWith(tup, b)
		sok := relation.SatisfiesAll(tup, rs)
		if mok != sok {
			t.Fatalf("MatchWith=%v SatisfiesAll=%v for %v under %v", mok, sok, tup, b)
		}
	}
}
