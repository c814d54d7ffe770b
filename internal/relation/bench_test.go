package relation

import (
	"math/rand"
	"testing"

	"prodsys/internal/value"
)

// BenchmarkRelationChurn measures the storage cost of working-memory
// churn: one op swaps a wave of churnWave tuples out of and into a
// relation holding about churnLive live tuples, with hash-only indexes
// on both attributes. Run it with -benchmem.
//
//   - fifo: chain-bulk's shape. The oldest wave leaves, a new one arrives
//     with ascending keys, ten tuples per key of attribute v.
//   - random: the retracted tuples are drawn at random from the live set.
//   - skew: as random, but every tuple carries the same v, so one hash
//     bucket holds the whole relation.
func BenchmarkRelationChurn(b *testing.B) {
	const (
		churnLive = 3100
		churnWave = 155
	)
	cases := []struct {
		name   string
		random bool
		vOf    func(u int64) int64
	}{
		{"fifo", false, func(u int64) int64 { return u / 10 }},
		{"random", true, func(u int64) int64 { return u / 10 }},
		{"skew", true, func(int64) int64 { return 0 }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			r := New(MustSchema("K", "u", "v"), nil)
			r.CreateHashIndex(0)
			r.CreateHashIndex(1)
			rng := rand.New(rand.NewSource(1))
			var next int64
			var live []TupleID
			wave := make([]DeltaEntry, churnWave)
			fill := func() {
				for i := range wave {
					next++
					wave[i] = DeltaEntry{Tuple: Tuple{value.OfInt(next), value.OfInt(c.vOf(next))}}
				}
				if err := r.InsertBatch(wave); err != nil {
					b.Fatal(err)
				}
				for _, e := range wave {
					live = append(live, e.ID)
				}
			}
			for len(live) < churnLive {
				fill()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				for i := 0; i < churnWave; i++ {
					j := i
					if c.random {
						j = rng.Intn(len(live))
					}
					if _, err := r.Delete(live[j]); err != nil {
						b.Fatal(err)
					}
					if c.random {
						live[j] = live[len(live)-1]
						live = live[:len(live)-1]
					}
				}
				if !c.random {
					live = append(live[:0], live[churnWave:]...)
				}
				fill()
			}
		})
	}
}
