package prodsys

import (
	"errors"
	"strings"
	"testing"
)

// TestPlanExplainCoversFiftyRuleWorkload is the acceptance check on
// the Plan/Explain API: after a 200-op run of the 50-rule payroll
// program, sys.Plans must return at least one plan per rule, every
// condition element of every plan must render both estimated and
// actual cardinalities, the plan cache must have served hits, and an
// unknown rule name must fail with ErrUnknownRule.
func TestPlanExplainCoversFiftyRuleWorkload(t *testing.T) {
	sys, _, res := tracedPayrollRun(t, MatcherCore, 200)
	if res.Firings == 0 {
		t.Fatal("no firings")
	}
	for _, rule := range sys.RuleNames() {
		plans, err := sys.Plans(rule)
		if err != nil {
			t.Fatalf("Plans(%s): %v", rule, err)
		}
		if len(plans) == 0 {
			t.Fatalf("Plans(%s): no plans", rule)
		}
		best, err := sys.Plan(rule)
		if err != nil || best == nil {
			t.Fatalf("Plan(%s): %v", rule, err)
		}
		for _, p := range plans {
			if p.Rule != rule {
				t.Fatalf("plan for %s claims rule %s", rule, p.Rule)
			}
			out := p.String()
			for _, s := range p.Steps {
				if s.Class == "" {
					t.Fatalf("%s: step with no class:\n%s", rule, out)
				}
			}
			if got := strings.Count(out, "est="); got != len(p.Steps) {
				t.Fatalf("%s: %d est= renderings for %d steps:\n%s", rule, got, len(p.Steps), out)
			}
			if got := strings.Count(out, "actual="); got != len(p.Steps) {
				t.Fatalf("%s: %d actual= renderings for %d steps:\n%s", rule, got, len(p.Steps), out)
			}
		}
	}
	m := sys.Metrics()
	if m.Planner.PlanCacheHits == 0 {
		t.Error("plan cache served no hits across the run")
	}
	if m.Planner.PlansBuilt == 0 {
		t.Error("no plans built")
	}
	if rate := m.Planner.CacheHitRate(); rate <= 0 || rate > 1 {
		t.Errorf("CacheHitRate = %v", rate)
	}
	if _, err := sys.Plan("ghost"); !errors.Is(err, ErrUnknownRule) {
		t.Fatalf("unknown rule err = %v, want ErrUnknownRule", err)
	}
}
