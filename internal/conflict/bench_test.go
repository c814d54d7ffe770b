package conflict

import (
	"math/rand"
	"testing"

	"prodsys/internal/relation"
	"prodsys/internal/rules"
)

// BenchmarkConflictChurn measures the conflict set's side of match
// maintenance in payroll-stream's shape: one op retracts the
// instantiations of the churnWave oldest A tuples and adds those of
// churnWave new ones, each joining churnFanout of a fixed pool of B
// tuples through a 2-CE rule, over about churnLive live instantiations.
// Building the instantiations is part of the op. Run it with -benchmem.
func BenchmarkConflictChurn(b *testing.B) {
	const (
		churnLive   = 50000
		churnWave   = 16
		churnFanout = 30
		churnPool   = 1000
	)
	set, _, err := rules.CompileSource(twoRuleSrc)
	if err != nil {
		b.Fatal(err)
	}
	r, _ := set.RuleByName("First")
	s := NewSet(set, nil)
	rng := rand.New(rand.NewSource(1))
	var next, oldest relation.TupleID
	ids, tuples := make([]relation.TupleID, 2), make([]relation.Tuple, 2)
	batch := make([]*Instantiation, 0, churnFanout)
	assert := func() {
		next++
		batch = batch[:0]
		for i := 0; i < churnFanout; i++ {
			ids[0], ids[1] = next, relation.TupleID(1+rng.Intn(churnPool))
			batch = append(batch, NewInstantiation(r, ids, tuples))
		}
		s.AddAll(batch)
	}
	for s.Len() < churnLive {
		assert()
	}
	oldest = 1
	var dst []*Instantiation
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for i := 0; i < churnWave; i++ {
			dst = s.RemoveByTuple(dst[:0], "A", oldest)
			oldest++
		}
		for i := 0; i < churnWave; i++ {
			assert()
		}
	}
}
