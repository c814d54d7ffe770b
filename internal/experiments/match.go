package experiments

import (
	"fmt"
	"strings"
	"time"

	"prodsys/internal/conflict"
	"prodsys/internal/core"
	"prodsys/internal/marker"
	"prodsys/internal/match"
	"prodsys/internal/metrics"
	"prodsys/internal/relation"
	"prodsys/internal/rete"
	"prodsys/internal/rules"
	"prodsys/internal/workload"
)

// E1PropagationDepth measures the cost of completing a chain C1∧…∧Cn as
// n grows (§4: "the propagation delay of inserting a token into C2 will
// be significant if the number of single input nodes n is large").
// The probe deletes and re-inserts the first link of a complete chain:
// Rete pushes the token through n two-input nodes sequentially; the
// matching-pattern matcher answers from a single COND-relation search.
func E1PropagationDepth(ns []int, probes int) Table {
	t := Table{
		ID:    "E1",
		Title: "chain completion cost vs chain length n (per probe)",
		Columns: []string{
			"n", "rete µs", "rete activations", "core µs", "core checks (COND+verify)", "core maint ops",
		},
		Note: "rete join-node activations grow with n (the sequential hierarchy); core answers from one COND search plus one bounded verification join, and its maintenance per probe stays constant — patterns propagate only to variable-sharing condition elements",
	}
	for _, n := range ns {
		src := workload.ChainRules(n)
		reteS := mustSession(src, "rete")
		coreS := mustSession(src, "core")
		// Build one complete chain instance in both.
		for i := 0; i < n; i++ {
			cls, tup := workload.ChainLink(0, i)
			reteS.insert(cls, tup)
			coreS.insert(cls, tup)
		}
		probe := func(s *session) (time.Duration, metrics.Snapshot) {
			cls, tup := workload.ChainLink(0, 0)
			before := s.stats.Snapshot()
			d := timeIt(func() {
				for p := 0; p < probes; p++ {
					s.deleteOldest(cls)
					s.insert(cls, tup)
				}
			})
			return d / time.Duration(probes), s.stats.Snapshot().Diff(before)
		}
		rd, rsn := probe(reteS)
		cd, csn := probe(coreS)
		per := int64(probes)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n),
			us(rd),
			fmt.Sprintf("%d", rsn.Get(metrics.NodeActivations)/per),
			us(cd),
			fmt.Sprintf("%d", csn.Get(metrics.CandidateChecks)/per),
			fmt.Sprintf("%d", csn.Get(metrics.MaintenanceOps)/per),
		})
	}
	return t
}

// E2MatchTime compares every matcher's total cost on the payroll
// workload as the rule count grows (§4.2.3 Time: "matching is very fast
// with our approach because only a single search over a COND relation is
// necessary"; §4.1: the simplified algorithm re-computes joins on every
// change).
func E2MatchTime(ruleCounts []int, ops int) Table {
	t := Table{
		ID:    "E2",
		Title: "match maintenance cost by matcher and rule count (payroll workload)",
		Columns: []string{
			"rules", "ops", "matcher", "total ms", "joins", "activations", "COND searches", "instantiations",
		},
		Note: "requery pays joins per update; rete pays activations through the hierarchy; core pays COND searches + bounded verification joins; marker pays full re-evaluations on wakes",
	}
	for _, rc := range ruleCounts {
		n := ops
		if rc >= 1000 {
			n = ops / 4 // the O(R) matchers would dominate the run otherwise
		}
		stream := workload.PayrollOps(42, n, 0.25)
		src := workload.PayrollRules(rc, false)
		for _, m := range []string{"rete", "requery", "core", "marker", "ptree"} {
			s := mustSession(src, m)
			d := timeIt(func() { s.apply(stream) })
			sn := s.stats.Snapshot()
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", rc),
				fmt.Sprintf("%d", n),
				m,
				fmt.Sprintf("%.2f", float64(d.Microseconds())/1e3),
				fmt.Sprintf("%d", sn.Get(metrics.JoinsComputed)),
				fmt.Sprintf("%d", sn.Get(metrics.NodeActivations)),
				fmt.Sprintf("%d", sn.Get(metrics.PatternSearches)),
				fmt.Sprintf("%d", sn.Get(metrics.Instantiations)),
			})
		}
	}
	return t
}

// E3Space compares the storage each scheme keeps beyond working memory
// (§4.2.3 Space: "our approach consumes a lot of space for storing
// matching patterns … the matching patterns are actually the result of
// joins we have so far computed").
func E3Space(ruleCounts []int, ops int) Table {
	t := Table{
		ID:    "E3",
		Title: "intermediate storage by matcher (payroll workload, insert-only)",
		Columns: []string{
			"rules", "WM tuples", "matcher", "stored items", "what they are",
		},
		Note: "requery stores nothing (recomputation); marker stores rule IDs on tuples; rete stores tokens per two-input node; core stores matching patterns ≈ projected join results",
	}
	for _, rc := range ruleCounts {
		stream := workload.PayrollOps(7, ops, 0) // insert-only
		src := workload.PayrollRules(rc, false)
		wm := 0
		for _, m := range []string{"requery", "marker", "rete", "core"} {
			s := mustSession(src, m)
			s.apply(stream)
			wm = 0
			for _, name := range s.db.Names() {
				if rel, err := s.db.Lookup(name); err == nil {
					wm += rel.Len()
				}
			}
			var stored int
			var what string
			switch mm := s.matcher.(type) {
			case *rete.Network:
				stored = mm.TokenCount()
				what = "tokens in alpha/beta memories"
			case *core.Matcher:
				stored = mm.PatternCount()
				what = "matching patterns in COND relations"
			case *marker.Matcher:
				stored = mm.MarkCount()
				what = "rule markers on data tuples"
			default:
				stored = 0
				what = "none (joins recomputed)"
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", rc),
				fmt.Sprintf("%d", wm),
				s.matcher.Name(),
				fmt.Sprintf("%d", stored),
				what,
			})
		}
	}
	return t
}

// E4FalseDrops measures the false-drop rate of the Basic Locking scheme
// as condition read sets overlap (§2.3/§3.2: "depending on … the number
// of conditions that overlap … the first or the second approach becomes
// more efficient"; POSTGRES "will incur unnecessarily high computation
// cost" on false wakes).
func E4FalseDrops(overlaps []float64, inserts int) Table {
	t := Table{
		ID:    "E4",
		Title: "false drops vs condition overlap (20 salary-band rules)",
		Columns: []string{
			"overlap", "matcher", "wakes/searches", "false drops", "rate", "joins",
		},
		Note: "marker wakes every rule whose marked interval covers the inserted salary; as bands widen the wasted re-evaluations grow. core verifies only fully-marked patterns; its false drops stay near zero",
	}
	for _, o := range overlaps {
		src := workload.OverlapRules(20, o)
		stream := workload.OverlapOps(11, inserts)
		for _, m := range []string{"marker", "core"} {
			s := mustSession(src, m)
			s.apply(stream)
			sn := s.stats.Snapshot()
			var wakes int64
			if m == "marker" {
				wakes = sn.Get(metrics.CandidateChecks)
			} else {
				wakes = sn.Get(metrics.PatternSearches)
			}
			fd := sn.Get(metrics.FalseDrops)
			rate := 0.0
			if wakes > 0 {
				rate = float64(fd) / float64(wakes)
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%.2f", o),
				m,
				fmt.Sprintf("%d", wakes),
				fmt.Sprintf("%d", fd),
				fmt.Sprintf("%.3f", rate),
				fmt.Sprintf("%d", sn.Get(metrics.JoinsComputed)),
			})
		}
	}
	return t
}

// E12SharedNetwork measures the effect of beta-prefix sharing — the
// multiple-query optimization the paper defers to future work (§6,
// [SELL88]): rules with common condition-element prefixes share the
// two-input nodes of that prefix.
func E12SharedNetwork(families, variants, inserts int) Table {
	t := Table{
		ID:    "E12",
		Title: fmt.Sprintf("Rete vs multiple-query-optimized Rete (%d rule families × %d variants)", families, variants),
		Columns: []string{
			"matcher", "total ms", "activations", "tokens stored", "instantiations",
		},
		Note: "each family's variants share a two-condition prefix; the shared network (rete) compiles the prefix once, cutting activations and token storage against the unshared baseline without changing the conflict set",
	}
	src := sharedFamiliesSrc(families, variants)
	stream := workload.PayrollOps(21, inserts, 0.2)
	unshared := newSession(src, func(set *rules.Set, _ *relation.DB, cs *conflict.Set, stats *metrics.Set) match.Matcher {
		return rete.NewUnshared(set, cs, stats)
	})
	var inst []int64
	for _, s := range []*session{unshared, mustSession(src, "rete")} {
		d := timeIt(func() { s.apply(stream) })
		sn := s.stats.Snapshot()
		inst = append(inst, sn.Get(metrics.Instantiations))
		t.Rows = append(t.Rows, []string{
			s.matcher.Name(),
			fmt.Sprintf("%.2f", float64(d.Microseconds())/1e3),
			fmt.Sprintf("%d", sn.Get(metrics.NodeActivations)),
			fmt.Sprintf("%d", sn.Get(metrics.TokensStored)),
			fmt.Sprintf("%d", sn.Get(metrics.Instantiations)),
		})
	}
	if len(inst) == 2 && inst[0] != inst[1] {
		t.Note += " — WARNING: instantiation counts diverge (bug)"
	}
	return t
}

// sharedFamiliesSrc builds `families` groups of `variants` rules; rules
// within a family share their first two condition elements and differ in
// the third.
func sharedFamiliesSrc(families, variants int) string {
	var b strings.Builder
	b.WriteString("(literalize Emp name age salary dno)\n")
	b.WriteString("(literalize Dept dno dname floor)\n")
	for f := 0; f < families; f++ {
		for v := 0; v < variants; v++ {
			fmt.Fprintf(&b, `(p fam%d-v%d
    (Emp ^salary > %d ^dno <d>)
    (Dept ^dno <d> ^floor %d)
    (Dept ^dname dept%d ^dno <d2>)
  -->
    (remove 1))
`, f, v, f*500, f%5+1, v)
		}
	}
	return b.String()
}
