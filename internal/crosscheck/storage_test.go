package crosscheck

import (
	"math/rand"
	"reflect"
	"testing"

	"prodsys/internal/audit"
	"prodsys/internal/match"
	"prodsys/internal/metrics"
	"prodsys/internal/relation"
	"prodsys/internal/rules"
	"prodsys/internal/workload"
)

// storageSession drives one WM catalog on a chosen storage backend and
// every registered matcher in lockstep.
type storageSession struct {
	t        *testing.T
	set      *rules.Set
	db       *relation.DB
	stats    *metrics.Set
	matchers []match.Matcher
	live     map[string][]relation.TupleID
}

func newStorageSession(t *testing.T, src string, kind relation.StorageKind) *storageSession {
	t.Helper()
	set, _, err := rules.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	stats := &metrics.Set{}
	db := relation.NewDB(stats)
	if err := db.SetDefaultStorage(kind); err != nil {
		t.Fatal(err)
	}
	if err := rules.BuildDB(set, db); err != nil {
		t.Fatal(err)
	}
	return &storageSession{t: t, set: set, db: db, stats: stats, live: map[string][]relation.TupleID{}, matchers: allMatchers(t, set, db)}
}

func (s *storageSession) apply(ops []workload.Op) {
	s.t.Helper()
	for _, op := range ops {
		if op.Delete {
			ids := s.live[op.Class]
			if len(ids) == 0 {
				continue
			}
			id := ids[0]
			s.live[op.Class] = ids[1:]
			rel, err := s.db.Lookup(op.Class)
			if err != nil {
				s.t.Fatal(err)
			}
			tup, err := rel.Delete(id)
			if err != nil {
				s.t.Fatal(err)
			}
			for _, m := range s.matchers {
				if err := m.Delete(op.Class, id, tup); err != nil {
					s.t.Fatalf("%s delete: %v", m.Name(), err)
				}
			}
			continue
		}
		rel, err := s.db.Lookup(op.Class)
		if err != nil {
			s.t.Fatal(err)
		}
		id, err := rel.Insert(op.Tuple)
		if err != nil {
			s.t.Fatal(err)
		}
		stored, _ := rel.Get(id)
		for _, m := range s.matchers {
			if err := m.Insert(op.Class, id, stored); err != nil {
				s.t.Fatalf("%s insert: %v", m.Name(), err)
			}
		}
		s.live[op.Class] = append(s.live[op.Class], id)
	}
}

// oracleKeys returns requery's conflict-set keys (the declarative
// oracle) after asserting every matcher agrees with it.
func (s *storageSession) oracleKeys(context string) []string {
	s.t.Helper()
	var want []string
	for _, m := range s.matchers {
		if m.Name() == "requery" {
			want = m.ConflictSet().Keys()
		}
	}
	for _, m := range s.matchers {
		if got := m.ConflictSet().Keys(); !reflect.DeepEqual(got, want) {
			s.t.Fatalf("%s: %s conflict set = %v, oracle = %v", context, m.Name(), got, want)
		}
	}
	return want
}

// auditAll runs the PR 4 integrity audit over every matcher and fails
// on any divergence.
func (s *storageSession) auditAll(context string) {
	s.t.Helper()
	for _, m := range s.matchers {
		rep, err := audit.New(s.set, s.db, m, s.stats).Run(audit.Options{})
		if err != nil {
			s.t.Fatalf("%s: audit %s: %v", context, m.Name(), err)
		}
		if !rep.Clean() {
			s.t.Fatalf("%s: audit %s: %d divergences: %v", context, m.Name(), len(rep.Divergences), rep.Divergences)
		}
	}
}

// TestStorageBackendCrosscheck runs the randomized payroll workload on
// the row and columnar backends, holding every matcher in lockstep
// on each. Every checkpoint asserts (1) all matchers agree with the
// requery oracle, and (2) the full integrity audit is clean; at the end
// the two backends must have produced identical conflict-set histories.
func TestStorageBackendCrosscheck(t *testing.T) {
	const ruleCount, nOps, checkEvery = 20, 400, 100
	src := workload.PayrollRules(ruleCount, false)
	ops := workload.PayrollOps(13, nOps, 0.3)
	var histories [][]string
	for _, kind := range relation.StorageKinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			s := newStorageSession(t, src, kind)
			var history []string
			for i := 0; i < len(ops); i += checkEvery {
				j := i + checkEvery
				if j > len(ops) {
					j = len(ops)
				}
				s.apply(ops[i:j])
				ctx := string(kind)
				history = append(history, s.oracleKeys(ctx)...)
				s.auditAll(ctx)
			}
			histories = append(histories, history)
		})
	}
	if len(histories) == 2 && !reflect.DeepEqual(histories[0], histories[1]) {
		t.Fatalf("backends diverge: row history %d keys, columnar %d keys", len(histories[0]), len(histories[1]))
	}
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
	for _, kind := range relation.StorageKinds() {
		t.Run(string(kind), func(t *testing.T) {
			s := newStorageSession(t, src, kind)
			s.apply(ops)
			s.oracleKeys("final")
			s.auditAll("final")
		})
	}
}
