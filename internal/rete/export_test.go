package rete

import (
	"fmt"
	"math/rand"
	"sort"
)

// CorruptDerived drops one beta-memory token without the tree-based
// cleanup, leaving the memory silently inconsistent with its neighbours
// — the classic lost-token fault — and describes the damage, or returns
// "" when no beta memory holds a token. The corruption tests of package
// rete_test drive it against the integrity audit.
func CorruptDerived(net *Network, rng *rand.Rand) string {
	type cand struct {
		bm   *betaMemory
		t    *token
		name string
	}
	var cands []cand
	seen := map[*token]bool{}
	for _, ch := range net.ruleChains {
		for i, st := range ch.stores {
			bm, ok := st.(*betaMemory)
			if !ok {
				continue
			}
			for t := range bm.items {
				if t.level < 0 || seen[t] { // never the dummy top token
					continue
				}
				seen[t] = true
				cands = append(cands, cand{bm, t, fmt.Sprintf("%s of %s at level %d", tokenSignature(t), ch.rule.Name, i)})
			}
		}
	}
	if len(cands) == 0 {
		return ""
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].name < cands[j].name })
	c := cands[rng.Intn(len(cands))]
	delete(c.bm.items, c.t)
	return "rete: dropped beta token " + c.name
}
