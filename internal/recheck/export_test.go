package recheck

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"prodsys/internal/ptree"
	"prodsys/internal/relation"
	"prodsys/internal/rules"
)

// CorruptDerived damages the filter's state and describes the damage:
// core's matching pattern loses a real supporting tuple ID from its Mark
// counter or gains a phantom one, Basic Locking loses one marker an eligible instantiation requires (a
// lost mark bit), Predicate Indexing loses one condition element from
// its index (the derived-index analogue of a lost COND tuple). It
// returns "" when there is nothing to damage. The corruption tests of
// package recheck_test drive it against the integrity audit.
func CorruptDerived(m *Matcher, rng *rand.Rand) string {
	switch f := m.f.(type) {
	case *cond:
		return corruptPattern(f, rng)
	case *marks:
		type mark struct {
			key  tupleKey
			rule *rules.Rule
		}
		var live []mark
		for _, in := range m.cs.SelectAll() {
			for i, ce := range in.Rule.CEs {
				if !ce.Negated && f.marked(ce.Class, in.TupleIDs[i], in.Rule) {
					live = append(live, mark{tupleKey{ce.Class, in.TupleIDs[i]}, in.Rule})
				}
			}
		}
		if len(live) == 0 {
			return ""
		}
		c := live[rng.Intn(len(live))]
		delete(f.onTuple[c.key], c.rule)
		if len(f.onTuple[c.key]) == 0 {
			delete(f.onTuple, c.key)
		}
		return fmt.Sprintf("marker: unmarked %s:%d for rule %s", c.key.class, c.key.id, c.rule.Name)
	case *rtree:
		var all []*rules.CE
		for _, class := range m.set.ClassNames() {
			all = append(all, m.set.ByClass[class]...)
		}
		if len(all) == 0 {
			return ""
		}
		drop := all[rng.Intn(len(all))]
		IndexRules(m, withoutCE(m.set, drop))
		return fmt.Sprintf("ptree: dropped %s CE %d on %s from the condition index", drop.Rule.Name, drop.Index, drop.Class)
	}
	return ""
}

// corruptPattern drops a real supporting tuple ID from one matching
// pattern's Mark counter or adds a phantom one, or returns "" when no
// pattern has support.
func corruptPattern(c *cond, rng *rand.Rand) string {
	type cand struct {
		name string
		p    *pattern
	}
	var cands []cand
	for _, st := range c.stores {
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
	ca := cands[rng.Intn(len(cands))]
	s := &ca.p.support[rng.Intn(len(ca.p.support))]
	if rng.Intn(2) == 0 {
		id := s.ids[rng.Intn(len(s.ids))]
		s.ids = removeID(s.ids, id)
		return fmt.Sprintf("core: dropped support %s#%d id=%d", ca.name, s.src, id)
	}
	bogus := relation.TupleID(1<<40) + relation.TupleID(rng.Intn(1<<16))
	s.ids, _ = insertID(s.ids, bogus)
	return fmt.Sprintf("core: added phantom support %s#%d id=%d", ca.name, s.src, bogus)
}

// IndexRules replaces a ptree matcher's condition index with one built
// from set, which may be another rule set's.
func IndexRules(m *Matcher, set *rules.Set) {
	m.f.(*rtree).ix = ptree.NewIndex(set, m.stats)
}

// withoutCE copies set with ce left out of its class's condition
// elements.
func withoutCE(set *rules.Set, ce *rules.CE) *rules.Set {
	out := *set
	out.ByClass = maps.Clone(set.ByClass)
	out.ByClass[ce.Class] = slices.DeleteFunc(slices.Clone(set.ByClass[ce.Class]), func(x *rules.CE) bool { return x == ce })
	return &out
}
