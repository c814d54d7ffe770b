package rete

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"prodsys/internal/joiner"
	"prodsys/internal/match"
	"prodsys/internal/metrics"
	"prodsys/internal/relation"
	"prodsys/internal/rules"
)

// This file implements the integrity-audit hooks over the Rete network:
// every alpha memory, beta memory, negative node, and production node is
// diffed against the partial matches recomputed from the base WM
// relations by joining each rule's condition-element prefixes.

// tokenSignature renders the positive WM IDs of a token's chain as
// "level:id|…", ascending by level — the canonical name of the partial
// match the token represents.
func tokenSignature(t *token) string {
	type lv struct {
		level int
		id    relation.TupleID
	}
	var parts []lv
	for cur := t; cur != nil; cur = cur.parent {
		if cur.level >= 0 && cur.wme != nil {
			parts = append(parts, lv{cur.level, cur.wme.ID})
		}
	}
	sort.Slice(parts, func(i, j int) bool { return parts[i].level < parts[j].level })
	var b strings.Builder
	for i, p := range parts {
		if i > 0 {
			b.WriteByte('|')
		}
		fmt.Fprintf(&b, "%d:%d", p.level, p.id)
	}
	return b.String()
}

// idsSignature is tokenSignature's counterpart for a join result: the
// IDs at the positive condition-element levels of the (possibly
// truncated) CE list.
func idsSignature(ces []*rules.CE, ids []relation.TupleID) string {
	var b strings.Builder
	first := true
	for i, ce := range ces {
		if ce.Negated {
			continue
		}
		if !first {
			b.WriteByte('|')
		}
		first = false
		fmt.Fprintf(&b, "%d:%d", i, ids[i])
	}
	return b.String()
}

// AuditDerived implements match.Matcher. Alpha memories are
// shared across rules, so they are audited only in full mode
// (only == nil); beta chains are audited per selected rule.
func (net *Network) AuditDerived(db *relation.DB, only map[string]bool, emit func(match.Divergence)) {
	if only == nil {
		net.auditAlpha(db, emit)
	}
	for _, ch := range net.ruleChains {
		if only != nil && !only[ch.rule.Name] {
			continue
		}
		net.auditChain(db, ch, emit)
	}
}

// auditAlpha diffs every alpha memory (and the WME table itself)
// against the WM tuples passing its variable-free tests. Divergences
// carry no rule name — alpha memories are shared — which forces a full
// rebuild on repair.
func (net *Network) auditAlpha(db *relation.DB, emit func(match.Divergence)) {
	sigs := make([]string, 0, len(net.alphaBySig))
	for s := range net.alphaBySig {
		sigs = append(sigs, s)
	}
	sort.Strings(sigs)
	for _, sig := range sigs {
		am := net.alphaBySig[sig]
		actual := make(map[relation.TupleID]bool, len(am.items))
		for w := range am.items {
			actual[w.ID] = true
		}
		if rel, ok := db.Get(am.class); ok {
			var missing []relation.TupleID
			rel.Scan(func(id relation.TupleID, t relation.Tuple) bool {
				w := &WME{Class: am.class, ID: id, Tuple: t}
				if am.matches(w) {
					if !actual[id] {
						missing = append(missing, id)
					}
					delete(actual, id)
				}
				return true
			})
			for _, id := range missing {
				emit(match.Divergence{Class: match.DivAlphaMissing, CE: -1,
					Key:      fmt.Sprintf("%s id=%d", sig, id),
					Expected: "WME in alpha memory", Actual: "absent"})
			}
		}
		phantoms := make([]relation.TupleID, 0, len(actual))
		for id := range actual {
			phantoms = append(phantoms, id)
		}
		sort.Slice(phantoms, func(i, j int) bool { return phantoms[i] < phantoms[j] })
		for _, id := range phantoms {
			emit(match.Divergence{Class: match.DivAlphaPhantom, CE: -1,
				Key:      fmt.Sprintf("%s id=%d", sig, id),
				Expected: "absent", Actual: "WME in alpha memory"})
		}
	}
}

// auditChain diffs one rule's token stores — level by level — against
// the prefix joins recomputed from WM, then the production node against
// the full join.
func (net *Network) auditChain(db *relation.DB, ch *ruleChain, emit func(match.Divergence)) {
	r := ch.rule
	for i := range r.CEs {
		prefix := *r
		prefix.CEs = r.CEs[:i+1]
		expected := map[string]int{}
		joiner.Enumerate(db, &prefix, nil, net.stats, func(ids []relation.TupleID, _ []relation.Tuple, _ rules.Bindings) {
			expected[idsSignature(prefix.CEs, ids)]++
		})
		st := ch.stores[i]
		var toks []*token
		if neg, ok := st.(*negativeNode); ok {
			// Blocked tokens are legitimate internal state; only the
			// unblocked ones correspond to prefix matches.
			for _, t := range neg.allTokens() {
				if len(t.joinResults) == 0 {
					toks = append(toks, t)
				}
			}
		} else {
			toks = st.allTokens()
		}
		actual := map[string]int{}
		for _, t := range toks {
			actual[tokenSignature(t)]++
		}
		where := "beta memory"
		if _, ok := st.(*negativeNode); ok {
			where = "negative node"
		}
		diffSignatures(r, i, where, expected, actual, emit)
	}

	expected := map[string]int{}
	joiner.Enumerate(db, r, nil, net.stats, func(ids []relation.TupleID, _ []relation.Tuple, _ rules.Bindings) {
		expected[idsSignature(r.CEs, ids)]++
	})
	actual := map[string]int{}
	for _, t := range ch.pn.allTokens() {
		actual[tokenSignature(t)]++
	}
	diffSignatures(r, -1, "production node", expected, actual, emit)
}

// diffSignatures emits token-missing/token-phantom divergences for the
// count differences between the recomputed and stored partial matches.
func diffSignatures(r *rules.Rule, ce int, where string, expected, actual map[string]int, emit func(match.Divergence)) {
	keySet := map[string]bool{}
	for k := range expected {
		keySet[k] = true
	}
	for k := range actual {
		keySet[k] = true
	}
	keys := make([]string, 0, len(keySet))
	for k := range keySet {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		e, a := expected[k], actual[k]
		if e == a {
			continue
		}
		label := k
		if label == "" {
			label = "ε" // a match with no positive levels
		}
		if a < e {
			emit(match.Divergence{Class: match.DivTokenMissing, Rule: r.Name, CE: ce, Key: label,
				Expected: fmt.Sprintf("%d token(s) in %s", e, where),
				Actual:   fmt.Sprintf("%d", a)})
		} else {
			emit(match.Divergence{Class: match.DivTokenPhantom, Rule: r.Name, CE: ce, Key: label,
				Expected: fmt.Sprintf("%d token(s) in %s", e, where),
				Actual:   fmt.Sprintf("%d", a)})
		}
	}
}

// RebuildRules implements match.Matcher. Alpha and beta
// sharing make per-rule surgery unsafe, so the network is always
// recompiled in full — only is ignored — and every WM tuple re-inserted
// in ascending ID order. The conflict set is reconciled by the auditor
// afterwards (re-insertion re-adds live instantiations; Add dedups).
func (net *Network) RebuildRules(db *relation.DB, _ map[string]bool) error {
	fresh := compileNetwork(net.set, net.cs, net.stats, net.share)
	fresh.tr = net.tr
	for _, name := range db.Names() {
		rel, err := db.Lookup(name)
		if err != nil {
			return err
		}
		var entries []relation.DeltaEntry
		rel.Scan(func(id relation.TupleID, t relation.Tuple) bool {
			entries = append(entries, relation.DeltaEntry{ID: id, Tuple: t})
			return true
		})
		if err := fresh.InsertBatch(name, entries); err != nil {
			return err
		}
	}
	*net = *fresh
	net.stats.Inc(metrics.MatcherRebuilds)
	return nil
}

// CorruptDerived implements match.Matcher: one beta-memory token is
// dropped without the tree-based cleanup, leaving the memory silently
// inconsistent with its neighbours — the classic lost-token fault.
func (net *Network) CorruptDerived(rng *rand.Rand) string {
	type cand struct {
		bm    *betaMemory
		t     *token
		rule  string
		level int
		sig   string
	}
	var cands []cand
	seen := map[*token]bool{}
	for _, ch := range net.ruleChains {
		for i, st := range ch.stores {
			bm, ok := st.(*betaMemory)
			if !ok {
				continue
			}
			toks := bm.allTokens()
			sort.Slice(toks, func(a, b int) bool { return tokenSignature(toks[a]) < tokenSignature(toks[b]) })
			for _, t := range toks {
				if t.level < 0 || seen[t] { // never corrupt the dummy top token
					continue
				}
				seen[t] = true
				cands = append(cands, cand{bm: bm, t: t, rule: ch.rule.Name, level: i, sig: tokenSignature(t)})
			}
		}
	}
	if len(cands) == 0 {
		return ""
	}
	c := cands[rng.Intn(len(cands))]
	delete(c.bm.items, c.t)
	return fmt.Sprintf("rete: dropped beta token %s of %s at level %d", c.sig, c.rule, c.level)
}
