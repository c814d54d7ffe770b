package prodsys

import (
	"math/rand"

	"prodsys/internal/audit"
	"prodsys/internal/match"
)

// This file is the public surface of the integrity subsystem: online
// audits that recompute every matcher's ground truth from the base WM
// relations and diff it against the derived state, self-healing repair,
// and the fault-injection hook the detection tests (and the psdb demo)
// drive.

// AuditDivergence is one disagreement between the matcher's derived
// state and the ground truth recomputed from working memory.
type AuditDivergence struct {
	// Class is the divergence kind (e.g. "conflict-missing",
	// "mark-counter", "token-missing", "marker-missing").
	Class string
	// Rule names the affected rule; empty when not attributable to one
	// rule (shared structures), which forces a full rebuild on repair.
	Rule string
	// CE is the condition element index, -1 when rule- or set-level.
	CE int
	// Key identifies the diverging entry.
	Key string
	// Expected and Actual describe both sides of the disagreement.
	Expected string
	Actual   string
}

// String renders the divergence for logs and error output.
func (d AuditDivergence) String() string { return match.Divergence(d).String() }

// AuditReport is the outcome of one System.Audit run.
type AuditReport struct {
	// Matcher names the audited matching algorithm.
	Matcher string
	// RulesChecked counts the rules whose derived state was verified.
	RulesChecked int
	// Sampled reports whether this run checked a budgeted window of
	// rules rather than all of them.
	Sampled bool
	// Divergences lists every disagreement found, deterministically
	// ordered.
	Divergences []AuditDivergence
	// Repaired counts divergences addressed by the repair pass.
	Repaired int
	// Rebuilt reports whether the repair rebuilt matcher derived state.
	Rebuilt bool
}

// Clean reports whether the audit found no divergence.
func (r *AuditReport) Clean() bool { return len(r.Divergences) == 0 }

// AuditOptions tunes one System.Audit run.
type AuditOptions struct {
	// MaxRules, when positive and smaller than the rule count, switches
	// to sampled mode: each run checks at most this many rules, rotating
	// through the rule set across successive calls (the per-rule budget
	// of continuous online auditing).
	MaxRules int
	// Repair rebuilds the affected derived state from working memory
	// when divergences are found, so an immediate re-audit is clean.
	Repair bool
}

// Audit verifies the matcher's derived state against ground truth
// recomputed from the base WM relations: conflict-set instantiations
// (via the full LHS joins), COND-relation Mark counters, Rete alpha and
// beta memories, rule markers, and the condition index, depending on
// the active matcher. The audit runs under the engine's maintenance
// lock, so it is safe to call online between firings; it sees a
// quiescent, transaction-consistent state. With opts.Repair, divergent
// rules' derived state is rebuilt from WM (falling back to a full
// matcher rebuild when a divergence is not attributable to one rule).
func (s *System) Audit(opts AuditOptions) (*AuditReport, error) {
	if s.aud == nil {
		s.aud = audit.New(s.set, s.db, s.matcher, s.stats)
		s.aud.SetTracer(s.tracer)
	}
	var rep *audit.Report
	var err error
	s.eng.WithMaintenanceLock(func() {
		rep, err = s.aud.Run(audit.Options{MaxRules: opts.MaxRules, Repair: opts.Repair})
	})
	return convertAuditReport(rep), err
}

// convertAuditReport maps the internal audit report onto the public
// type; nil in, nil out.
func convertAuditReport(rep *audit.Report) *AuditReport {
	if rep == nil {
		return nil
	}
	out := &AuditReport{
		Matcher:      rep.Matcher,
		RulesChecked: rep.RulesChecked,
		Sampled:      rep.Sampled,
		Repaired:     rep.Repaired,
		Rebuilt:      rep.Rebuilt,
	}
	for _, d := range rep.Divergences {
		out.Divergences = append(out.Divergences, AuditDivergence(d))
	}
	return out
}

// InjectCorruption deliberately corrupts the active matcher's derived
// state — a Mark counter, a beta token, a rule marker, an index entry,
// or (for matchers whose only derived state is the conflict set) a
// conflict-set instantiation — using a seeded RNG for reproducibility.
// It returns a description of the damage, or "" when there was nothing
// to corrupt. This is the fault-injection hook behind the corruption
// detection tests and psdb's audit demo; production code has no reason
// to call it.
func (s *System) InjectCorruption(seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	var desc string
	s.eng.WithMaintenanceLock(func() { desc = audit.Corrupt(s.matcher, rng) })
	return desc
}
