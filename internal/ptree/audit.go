package ptree

import (
	"fmt"
	"math/rand"
	"sort"

	"prodsys/internal/match"
	"prodsys/internal/metrics"
	"prodsys/internal/relation"
	"prodsys/internal/rules"
)

// This file implements the integrity-audit hooks for the predicate-tree
// matcher. Its only derived state beyond the conflict set is the
// condition R-tree index, whose ground truth is the rule set itself:
// every condition element must be present in its class's tree, and no
// foreign entries may appear. (Rectangles are recomputed from the CE on
// insert, so presence is the whole invariant.)

// AuditDerived implements match.Matcher.
func (m *Matcher) AuditDerived(_ *relation.DB, only map[string]bool, emit func(match.Divergence)) {
	classes := make([]string, 0, len(m.index.trees))
	for c := range m.index.trees {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, class := range classes {
		tree := m.index.trees[class]
		schema, ok := m.set.Classes[class]
		if !ok {
			continue
		}
		present := map[*rules.CE]bool{}
		tree.SearchRect(FullRect(schema.Arity()), func(it *Item) bool {
			if ce, ok := it.Data.(*rules.CE); ok {
				present[ce] = true
			}
			return true
		})
		expected := map[*rules.CE]bool{}
		for _, ce := range m.set.ByClass[class] {
			expected[ce] = true
			if only != nil && !only[ce.Rule.Name] {
				continue
			}
			if !present[ce] {
				emit(match.Divergence{Class: match.DivIndexMissing, Rule: ce.Rule.Name, CE: ce.Index,
					Key:      fmt.Sprintf("%s/%s#%d", class, ce.Rule.Name, ce.Index),
					Expected: "condition element indexed", Actual: "absent from condition R-tree"})
			}
		}
		var extras []*rules.CE
		for ce := range present {
			if !expected[ce] {
				extras = append(extras, ce)
			}
		}
		sort.Slice(extras, func(i, j int) bool {
			if extras[i].Rule.Name != extras[j].Rule.Name {
				return extras[i].Rule.Name < extras[j].Rule.Name
			}
			return extras[i].Index < extras[j].Index
		})
		for _, ce := range extras {
			if only != nil && !only[ce.Rule.Name] {
				continue
			}
			emit(match.Divergence{Class: match.DivIndexPhantom, Rule: ce.Rule.Name, CE: ce.Index,
				Key:      fmt.Sprintf("%s/%s#%d", class, ce.Rule.Name, ce.Index),
				Expected: "absent", Actual: "foreign entry in condition R-tree"})
		}
	}
}

// RebuildRules implements match.Matcher: the index is static
// per rule set, so the rebuild reindexes everything regardless of only.
func (m *Matcher) RebuildRules(_ *relation.DB, _ map[string]bool) error {
	m.index = NewIndex(m.set, m.stats)
	m.stats.Inc(metrics.MatcherRebuilds)
	return nil
}

// CorruptDerived implements match.Matcher: the index is rebuilt with
// one randomly chosen condition element left out — the derived-index
// analogue of a lost COND tuple.
func (m *Matcher) CorruptDerived(rng *rand.Rand) string {
	classes := make([]string, 0, len(m.set.ByClass))
	for c := range m.set.ByClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	var all []*rules.CE
	for _, class := range classes {
		all = append(all, m.set.ByClass[class]...)
	}
	if len(all) == 0 {
		return ""
	}
	drop := all[rng.Intn(len(all))]
	ix := &Index{set: m.set, trees: make(map[string]*Tree), stats: m.stats}
	for class, schema := range m.set.Classes {
		ix.trees[class] = NewTree(schema.Arity())
	}
	for class, ces := range m.set.ByClass {
		for _, ce := range ces {
			if ce == drop {
				continue
			}
			ix.trees[class].Insert(&Item{Rect: RectForCE(ce), Data: ce})
		}
	}
	m.index = ix
	return fmt.Sprintf("ptree: dropped %s CE %d on %s from the condition index", drop.Rule.Name, drop.Index, drop.Class)
}
