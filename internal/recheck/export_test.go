package recheck

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"

	"prodsys/internal/ptree"
	"prodsys/internal/rules"
)

// CorruptDerived damages the filter's state and describes the damage:
// Basic Locking loses one marker an eligible instantiation requires (a
// lost mark bit), Predicate Indexing loses one condition element from
// its index (the derived-index analogue of a lost COND tuple). It
// returns "" when there is nothing to damage. The corruption tests of
// package recheck_test drive it against the integrity audit.
func CorruptDerived(m *Matcher, rng *rand.Rand) string {
	switch f := m.f.(type) {
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
