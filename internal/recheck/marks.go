package recheck

import (
	"fmt"
	"sort"

	"prodsys/internal/metrics"
	"prodsys/internal/relation"
	"prodsys/internal/rules"
	"prodsys/internal/trace"
	"prodsys/internal/value"
)

// marks is the Basic Locking search of Stonebraker, Sellis and Hanson
// [STON86a], as used by POSTGRES (§2.3): every tuple an evaluation reads
// is marked with the rule's identifier, and index intervals are marked to
// catch future insertions (the phantom problem). Changing a marked tuple,
// or inserting into a marked interval, wakes the marked rules, which
// re-check their conditions. Marks are cheap to store but wake rules that
// turn out unaffected: the false drops §3.2 contrasts with matching
// patterns. Marks belong to single tuples, so a batch wakes entry by
// entry.
type marks struct {
	// onTuple: rule identifiers set on individual data tuples.
	onTuple map[tupleKey]map[*rules.Rule]struct{}
	// intervals: per class, the marked index key ranges derived from the
	// condition elements' restrictions at setup time.
	intervals map[string][]interval
}

// tupleKey identifies a marked tuple.
type tupleKey struct {
	class string
	id    relation.TupleID
}

// interval is a marked key range on one attribute of one class: rules
// interested in tuples whose attribute falls inside [lo, hi].
type interval struct {
	pos    int
	lo, hi value.V // nil bound = unbounded
	rule   *rules.Rule
}

// contains reports whether v falls inside the interval.
func (iv interval) contains(v value.V) bool {
	if v.IsNil() {
		return false
	}
	if !iv.lo.IsNil() && !value.OpLe.Apply(iv.lo, v) {
		return false
	}
	if !iv.hi.IsNil() && !value.OpLe.Apply(v, iv.hi) {
		return false
	}
	return true
}

// newMarks sets the index-interval marks implied by the rule set: for
// each condition element, the key range its constant restrictions admit;
// condition elements with no constant restriction mark the whole
// relation (the paper's "in the absence of indices ... marking all
// tuples" case).
func newMarks(set *rules.Set) *marks {
	k := &marks{onTuple: make(map[tupleKey]map[*rules.Rule]struct{}), intervals: make(map[string][]interval)}
	for _, r := range set.Rules {
		for _, ce := range r.CEs {
			k.intervals[ce.Class] = append(k.intervals[ce.Class], intervalFor(ce))
		}
	}
	return k
}

// intervalFor derives the marked key range of a condition element from
// its constant restrictions: the tightest single-attribute interval.
func intervalFor(ce *rules.CE) interval {
	iv := interval{pos: -1, rule: ce.Rule}
	for _, c := range ce.Consts {
		switch c.Op {
		case value.OpEq:
			return interval{pos: c.Pos, lo: c.Val, hi: c.Val, rule: ce.Rule}
		case value.OpGe, value.OpGt:
			if iv.pos == -1 || iv.pos == c.Pos {
				iv.pos, iv.lo = c.Pos, c.Val
			}
		case value.OpLe, value.OpLt:
			if iv.pos == -1 || iv.pos == c.Pos {
				iv.pos, iv.hi = c.Pos, c.Val
			}
		}
	}
	return iv
}

// inserted wakes, per entry, the rules whose intervals it falls in, and
// verifies every condition element of each woken rule on the class
// pinned to it — the re-check POSTGRES performs before acting.
func (k *marks) inserted(m *Matcher, class string, entries []relation.DeltaEntry) {
	for i, e := range entries {
		for _, r := range k.wake(m, class, e, true) {
			var found int64
			for _, ce := range r.CEs {
				if ce.Class == class {
					found += m.verify(ce, entries[i:i+1])
				}
			}
			countWake(m, r, class, e.ID, found)
		}
	}
}

// deleted wakes, per entry, the rules marked on it or on an interval it
// falls in, drops its marks, and re-derives each woken rule with a
// negated condition element on the class: the deletion may have
// unblocked it, and no incremental seed is available.
func (k *marks) deleted(m *Matcher, class string, entries []relation.DeltaEntry) {
	for _, e := range entries {
		woken := k.wake(m, class, e, false)
		delete(k.onTuple, tupleKey{class: class, id: e.ID})
		for _, r := range woken {
			for _, ce := range r.CEs {
				if ce.Negated && ce.Class == class {
					countWake(m, r, class, e.ID, m.rederive(r, -1, class))
					break
				}
			}
		}
	}
}

// countWake counts rule r's re-check after id's change woke it, and a
// false drop when it derived nothing: the mark was too coarse. The trace
// tags a false drop with a rule-level join_eval (extra "false drop")
// after the re-check's own events, which carry its time.
func countWake(m *Matcher, r *rules.Rule, class string, id relation.TupleID, found int64) {
	m.stats.Inc(metrics.CandidateChecks)
	if found == 0 {
		m.stats.Inc(metrics.FalseDrops)
		m.emit(m.tr.Now(), trace.Event{Kind: trace.KindJoinEval, Rule: r.Name, CE: -1, Class: class, ID: uint64(id), Extra: "false drop"})
	}
}

// wake collects the rules whose intervals — or, for a deletion, whose
// tuple markers — e hits, in rule order.
func (k *marks) wake(m *Matcher, class string, e relation.DeltaEntry, isInsert bool) []*rules.Rule {
	t0 := m.tr.Now()
	woken := map[*rules.Rule]struct{}{}
	if !isInsert {
		for r := range k.onTuple[tupleKey{class: class, id: e.ID}] {
			woken[r] = struct{}{}
		}
	}
	for _, iv := range k.intervals[class] {
		m.stats.Inc(metrics.IndexLookups)
		if iv.pos == -1 || iv.contains(e.Tuple[iv.pos]) {
			woken[iv.rule] = struct{}{}
		}
	}
	out := make([]*rules.Rule, 0, len(woken))
	for r := range woken {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	m.emit(t0, trace.Event{Kind: trace.KindCondScan, CE: -1, Class: class, ID: uint64(e.ID), Count: int64(len(out))})
	return out
}

// derived sets rule markers on the tuples the evaluation read.
func (k *marks) derived(r *rules.Rule, ids []relation.TupleID) {
	for i, ce := range r.CEs {
		if ce.Negated {
			continue
		}
		key := tupleKey{class: ce.Class, id: ids[i]}
		set := k.onTuple[key]
		if set == nil {
			set = make(map[*rules.Rule]struct{})
			k.onTuple[key] = set
		}
		set[r] = struct{}{}
	}
}

// marked reports whether tuple id of class carries rule r's marker.
func (k *marks) marked(class string, id relation.TupleID, r *rules.Rule) bool {
	_, ok := k.onTuple[tupleKey{class: class, id: id}][r]
	return ok
}

// dump lists, per rule, each marker an eligible instantiation requires
// and the tuple holds, once. Markers beyond the required ones are stale
// by design (the scheme tolerates false drops), so they are not listed.
func (k *marks) dump(m *Matcher, only map[string]bool, emit func(rule, line string)) {
	type mark struct {
		key  tupleKey
		rule *rules.Rule
	}
	listed := map[mark]bool{}
	for _, in := range m.cs.SelectAll() {
		r := in.Rule
		if only != nil && !only[r.Name] {
			continue
		}
		for i, ce := range r.CEs {
			mk := mark{tupleKey{class: ce.Class, id: in.TupleIDs[i]}, r}
			if ce.Negated || listed[mk] || !k.marked(mk.key.class, mk.key.id, r) {
				continue
			}
			listed[mk] = true
			emit(r.Name, fmt.Sprintf("marker %s:%d", mk.key.class, mk.key.id))
		}
	}
}
