package conflict

import (
	"math/rand"
	"slices"
	"testing"

	"prodsys/internal/relation"
	"prodsys/internal/rules"
)

// tupleModel is the reference for a per-tuple index: each tuple's list
// as the keys of its links, in link order.
type tupleModel map[tupleRef][]Key

// tupleRef names a tuple by its class ID and ID within the class.
type tupleRef struct {
	class int
	id    relation.TupleID
}

// refs returns the tuples in's links name, in condition-element order,
// a tuple once per condition element it fills.
func refs(in *Instantiation) []tupleRef {
	var out []tupleRef
	for i, id := range in.TupleIDs {
		if ce := in.Rule.CEs[i]; !ce.Negated && id != 0 {
			out = append(out, tupleRef{ce.ClassID, id})
		}
	}
	return out
}

func (m tupleModel) link(in *Instantiation) {
	for _, r := range refs(in) {
		m[r] = append(m[r], in.Key())
	}
}

func (m tupleModel) unlink(in *Instantiation) {
	key := in.Key()
	for _, r := range refs(in) {
		m[r] = slices.DeleteFunc(m[r], func(k Key) bool { return k == key })
		if len(m[r]) == 0 {
			delete(m, r)
		}
	}
}

// checkIndex walks every list of ix and compares it with want: the same
// tuples, each list circular, doubly linked, flagged at its head only,
// holding the links of the tuple, in want's order and — for byTuple — in
// Seq order.
func checkIndex(t *testing.T, what string, ix tupleIndex, want tupleModel, seqOrder bool) {
	t.Helper()
	if n := indexedTuples(ix); n != len(want) {
		t.Fatalf("%s holds %d tuples, want %d", what, n, len(want))
	}
	for class, m := range ix {
		for id, head := range m {
			var got []Key
			l := head
			for {
				if l.head != (l == head) {
					t.Fatalf("%s %d:%d: link %s has head flag %v", what, class, id, l.in.KeyString(), l.head)
				}
				if c, i := l.tuple(); c != class || i != id {
					t.Fatalf("%s %d:%d: list holds a link of tuple %d:%d", what, class, id, c, i)
				}
				if l.next.prev != l {
					t.Fatalf("%s %d:%d: broken back link", what, class, id)
				}
				if seqOrder && l != head && l.in.Seq < l.prev.in.Seq {
					t.Fatalf("%s %d:%d: Seq %d after %d", what, class, id, l.in.Seq, l.prev.in.Seq)
				}
				got = append(got, l.in.Key())
				if l = l.next; l == head {
					break
				}
			}
			if w := want[tupleRef{class, id}]; !slices.Equal(got, w) {
				t.Fatalf("%s %d:%d lists %d links, want %d", what, class, id, len(got), len(w))
			}
		}
	}
}

// TestTupleIndexMatchesModel runs random adds, removals, refraction marks,
// ForgetTuple and re-adds of fired instantiations against the reference
// lists, checking both per-tuple indexes after every step.
func TestTupleIndexMatchesModel(t *testing.T) {
	set, _, err := rules.CompileSource(`
(literalize A x)
(literalize B y)
(p Join (A ^x <v>) (B ^y <v>) --> (halt))
(p Solo (B ^y <v>) --> (halt))
(p Neg (A ^x <v>) - (B ^y <v>) --> (halt))
(p Self (A ^x <v>) (A ^x <v>) --> (halt))`)
	if err != nil {
		t.Fatal(err)
	}
	steps := 2000
	if testing.Short() {
		steps = 400
	}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewSet(set, nil)
		live, marked := tupleModel{}, tupleModel{}
		fired := map[Key]*Instantiation{} // each mark's object, nil when marked for good
		random := func() *Instantiation {
			r := set.Rules[rng.Intn(len(set.Rules))]
			ids := make([]relation.TupleID, len(r.CEs))
			for i, ce := range r.CEs {
				if !ce.Negated {
					ids[i] = relation.TupleID(1 + rng.Intn(4))
				}
			}
			return NewInstantiation(r, ids, make([]relation.Tuple, len(ids)))
		}
		add := func(in *Instantiation) {
			if s.Add(in) {
				live.link(in)
			}
		}
		tuple := func() (string, tupleRef) {
			name := []string{"A", "B"}[rng.Intn(2)]
			class, _ := set.ClassID(name)
			return name, tupleRef{class, relation.TupleID(1 + rng.Intn(4))}
		}
		for step := 0; step < steps; step++ {
			switch op := rng.Intn(12); {
			case op < 4:
				add(random())
			case op < 5:
				// Re-add a fired object; its links may hold its mark.
				var idle []*Instantiation
				for _, in := range fired {
					if in != nil && !s.Contains(in.Key()) {
						idle = append(idle, in)
					}
				}
				if len(idle) > 0 {
					slices.SortFunc(idle, func(a, b *Instantiation) int { return int(a.Seq) - int(b.Seq) })
					add(idle[rng.Intn(len(idle))])
				}
			case op < 6:
				in := random()
				if s.Remove(in.Key()) {
					live.unlink(in)
				}
			case op < 8:
				name, ref := tuple()
				want := slices.Compact(slices.Clone(live[ref]))
				got := s.RemoveByTuple(nil, name, ref.id)
				for i, in := range got {
					if i >= len(want) || in.Key() != want[i] {
						t.Fatalf("seed %d step %d: RemoveByTuple returned %d instantiations, want %d in list order", seed, step, len(got), len(want))
					}
					live.unlink(in)
				}
				if len(got) != len(want) {
					t.Fatalf("seed %d step %d: RemoveByTuple returned %d instantiations, want %d", seed, step, len(got), len(want))
				}
			case op < 10:
				in := random()
				if sel := s.Select(FIFO{}); sel != nil && rng.Intn(2) == 0 {
					in = sel
				}
				key := in.Key()
				cur := s.get(key)
				if cur != nil {
					live.unlink(cur)
				}
				s.MarkFired(key)
				if _, ok := fired[key]; !ok {
					fired[key] = cur
					if cur != nil {
						marked.link(cur)
					}
				}
			default:
				name, ref := tuple()
				for _, key := range slices.Compact(slices.Clone(marked[ref])) {
					marked.unlink(fired[key])
					delete(fired, key)
				}
				s.ForgetTuple(name, ref.id)
			}
			checkIndex(t, "byTuple", s.byTuple, live, true)
			checkIndex(t, "firedBy", s.firedBy, marked, false)
			if s.FiredLen() != len(fired) {
				t.Fatalf("seed %d step %d: %d refraction marks, want %d", seed, step, s.FiredLen(), len(fired))
			}
			for in := s.head; in != nil; in = in.next {
				if _, want := fired[in.Key()]; in.refracted != want {
					t.Fatalf("seed %d step %d: %s refracted = %v, want %v", seed, step, in.KeyString(), in.refracted, want)
				}
			}
		}
	}
}
