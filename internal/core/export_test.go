package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"prodsys/internal/relation"
)

// CorruptDerived damages one matching pattern's Mark counter — it drops
// a real supporting tuple ID or adds a phantom one — and describes the
// damage, or returns "" when no pattern has support. The corruption
// tests of package core_test drive it against the integrity audit.
func CorruptDerived(m *Matcher, rng *rand.Rand) string {
	type cand struct {
		name string
		p    *pattern
	}
	var cands []cand
	for _, st := range m.stores {
		for _, ci := range st.conds {
			for _, sh := range ci.shapes {
				sh.each(func(p *pattern) {
					var b strings.Builder
					fmt.Fprintf(&b, "%s ce%d {", ci.ce.Rule.Name, ci.ce.Index)
					p.writeBindings(&b)
					b.WriteByte('}')
					cands = append(cands, cand{b.String(), p})
				})
			}
		}
	}
	if len(cands) == 0 {
		return ""
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].name < cands[j].name })
	c := cands[rng.Intn(len(cands))]
	s := &c.p.support[rng.Intn(len(c.p.support))]
	if rng.Intn(2) == 0 {
		id := s.ids[rng.Intn(len(s.ids))]
		s.ids = removeID(s.ids, id)
		return fmt.Sprintf("core: dropped support %s#%d id=%d", c.name, s.src, id)
	}
	bogus := relation.TupleID(1<<40) + relation.TupleID(rng.Intn(1<<16))
	s.ids, _ = insertID(s.ids, bogus)
	return fmt.Sprintf("core: added phantom support %s#%d id=%d", c.name, s.src, bogus)
}
