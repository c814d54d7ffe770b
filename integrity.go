package prodsys

import (
	"math/rand"

	"prodsys/internal/audit"
	"prodsys/internal/match"
)

// This file is the public surface of the integrity subsystem: online
// audits that diff the live matcher against a twin built from scratch
// over the same working memory, self-healing repair, and the
// fault-injection hook the detection tests (and the psdb demo) drive.

// AuditDivergence is one disagreement between the live matcher and a
// twin of it built from scratch over the same working memory.
type AuditDivergence struct {
	// Class is the divergence kind: "conflict-missing" or
	// "conflict-phantom" for an eligible instantiation, "derived-missing"
	// or "derived-phantom" for an entry of the matcher's derived state
	// beyond the conflict set (a matching pattern with its supporters, a
	// Rete token or alpha-memory entry, a rule marker, an index entry).
	// Missing: the twin has it and the live matcher lacks it; phantom:
	// the other way round.
	Class string
	// Rule names the affected rule; empty for a structure shared across
	// rules (a Rete alpha memory).
	Rule string
	// Key identifies the diverging entry: an instantiation key, or the
	// derived-state entry by condition element and tuple IDs.
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
	// Rebuilt reports whether the repair installed a freshly built
	// matcher.
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
	// Repair, when divergences are found, reconciles the conflict set
	// and installs a matcher built from working memory, so an immediate
	// re-audit is clean.
	Repair bool
}

// Audit checks the matcher against a twin of it built from scratch over
// the live working memory — the same algorithm fed one insert batch per
// class — comparing each rule's eligible instantiations and the derived
// state beyond the conflict set (COND-relation patterns, Rete memories,
// rule markers, the condition index, depending on the matcher). The
// audit runs under the engine's maintenance lock, so it is safe to call
// online between firings; it sees a quiescent, transaction-consistent
// state. With opts.Repair, missing eligible instantiations are added (in
// key order) and phantom ones removed, and a freshly built matcher
// replaces the live one; instantiations that survive keep their arrival
// order and fired ones stay fired.
func (s *System) Audit(opts AuditOptions) (*AuditReport, error) {
	var rep *audit.Report
	var err error
	s.eng.WithMaintenanceLock(func() {
		rep, err = s.aud.Run(s.eng.Matcher(), audit.Options{MaxRules: opts.MaxRules, Repair: opts.Repair})
		if err == nil && rep.Fresh != nil {
			rep.Fresh.SetTracer(s.tracer)
			rep.Fresh.SetPlanner(s.planner)
			s.eng.SetMatcher(rep.Fresh)
		}
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
		Rebuilt:      rep.Fresh != nil,
	}
	for _, d := range rep.Divergences {
		out.Divergences = append(out.Divergences, AuditDivergence(d))
	}
	return out
}

// InjectCorruption deliberately drops one eligible instantiation from
// the conflict set, chosen with a seeded RNG for reproducibility, and
// describes the damage, or returns "" when the conflict set has no
// eligible instantiation. This is the fault-injection hook behind the
// corruption detection tests and psdb's audit demo; production code has
// no reason to call it. (Each matcher package's tests damage its own
// derived state through hooks compiled only into those tests.)
func (s *System) InjectCorruption(seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	var desc string
	s.eng.WithMaintenanceLock(func() {
		cs := s.eng.ConflictSet()
		if items := cs.SelectAll(); len(items) > 0 {
			in := items[rng.Intn(len(items))]
			cs.Remove(in.Key())
			desc = "conflict: dropped instantiation " + in.KeyString()
		}
	})
	return desc
}
