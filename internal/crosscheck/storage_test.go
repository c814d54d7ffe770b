package crosscheck

import (
	"math/rand"
	"testing"

	"prodsys/internal/audit"
	"prodsys/internal/workload"
)

// apply replays an op stream through the catalog and every matcher; a
// delete op removes the oldest live tuple of its class.
func (s *session) apply(ops []workload.Op) {
	s.t.Helper()
	for _, op := range ops {
		if !op.Delete {
			s.insert(op.Class, op.Tuple...)
		} else if ids := s.live[op.Class]; len(ids) > 0 {
			s.delete(op.Class, ids[0])
		}
	}
}

// auditAll runs the integrity audit over every matcher and fails on any
// divergence.
func (s *session) auditAll(context string) {
	s.t.Helper()
	for _, m := range s.matchers {
		rep, err := audit.New(s.set, s.db, s.stats).Run(m, audit.Options{})
		if err != nil {
			s.t.Fatalf("%s: audit %s: %v", context, m.Name(), err)
		}
		if !rep.Clean() {
			s.t.Fatalf("%s: audit %s: %d divergences: %v", context, m.Name(), len(rep.Divergences), rep.Divergences)
		}
	}
}

// TestStorageBackendCrosscheck runs the randomized payroll workload on
// the row store, holding every matcher in lockstep. Every checkpoint
// asserts (1) all matchers agree with the requery oracle, and (2) the
// full integrity audit is clean. The "row" subtest names the row store,
// the one storage layout.
func TestStorageBackendCrosscheck(t *testing.T) {
	const ruleCount, nOps, checkEvery = 20, 400, 100
	src := workload.PayrollRules(ruleCount, false)
	ops := workload.PayrollOps(13, nOps, 0.3)
	t.Run("row", func(t *testing.T) {
		s := newSession(t, src)
		for i := 0; i < len(ops); i += checkEvery {
			s.apply(ops[i:min(i+checkEvery, len(ops))])
			s.agree("row")
			s.auditAll("row")
		}
	})
}

// TestStorageBackendCrosscheckMixedStream repeats the crosscheck on a
// second workload shape — range-heavy overlap rules whose alpha tests
// (lo < salary < hi) exercise the merged ordered-index probe — with a
// different churn mix.
func TestStorageBackendCrosscheckMixedStream(t *testing.T) {
	src := workload.OverlapRules(12, 0.5)
	ops := workload.OverlapOps(29, 300)
	// Shuffle deletes deeper into the stream for a distinct churn shape.
	rng := rand.New(rand.NewSource(31))
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	t.Run("row", func(t *testing.T) {
		s := newSession(t, src)
		s.apply(ops)
		s.agree("final")
		s.auditAll("final")
	})
}
