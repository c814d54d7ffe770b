package core

import (
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"

	"prodsys/internal/relation"
	"prodsys/internal/rules"
	"prodsys/internal/value"
)

// This file is the physical layout of the COND relations: one persistent
// index per positive condition element, keyed by pattern shape. A
// pattern's shape is the sorted set of variables it binds, which is fixed
// per contributing condition element (its equality-bound variables that
// the target references), so a COND relation holds a handful of shapes
// and, within each, patterns keyed by the OPS5-equality class of their
// bound values. Detection probes one hash bucket per shape the condition
// element can key from a tuple, instead of rescanning every pattern.

// keyWidth is how many bound values a pattern's hash key holds; patterns
// of a wider shape that agree on their first keyWidth values share a
// bucket and are chained.
const keyWidth = 2

// keyVal is the hashable identity of one bound value: its OPS5-equality
// class (value.Key(), so 1 and 1.0 or a symbol and the equal string
// coincide), with a float payload held as bits so every key — NaN
// included — equals itself.
type keyVal struct {
	kind value.Kind
	n    uint64
	s    string
}

func keyOf(v value.V) keyVal {
	k := v.Key()
	switch k.Kind() {
	case value.Int:
		return keyVal{kind: value.Int, n: uint64(k.AsInt())}
	case value.Float:
		return keyVal{kind: value.Float, n: math.Float64bits(k.AsFloat())}
	default:
		return keyVal{kind: k.Kind(), s: k.AsString()}
	}
}

// value rebuilds the canonical value a key stands for.
func (k keyVal) value() value.V {
	switch k.kind {
	case value.Int:
		return value.OfInt(int64(k.n))
	case value.Float:
		return value.OfFloat(math.Float64frombits(k.n))
	case value.Str:
		return value.OfString(k.s)
	}
	return value.V{}
}

// bindKey is the hash key of a pattern within its shape.
type bindKey [keyWidth]keyVal

// support is one RCE's mark on a pattern: the working-memory tuples of
// that condition element's class whose projections created it.
type support struct {
	src int
	ids []relation.TupleID // ascending
}

// pattern is one matching pattern: the condition element's attribute
// restrictions partially instantiated by its shape's variables, with the
// supporting tuple IDs per contributing condition element (the paper's
// Mark bits, generalized to exact sets for correct deletion — §4.2.2).
type pattern struct {
	sh      *shape
	key     bindKey
	rest    []keyVal // bound values beyond keyWidth, in shape order
	next    *pattern // next pattern in the same bucket
	support []support
}

// val returns the pattern's value for the shape variable at slot k.
func (p *pattern) val(k int) keyVal {
	if k < keyWidth {
		return p.key[k]
	}
	return p.rest[k-keyWidth]
}

// ids returns the supporters the condition element src contributed.
func (p *pattern) ids(src int) []relation.TupleID {
	for _, s := range p.support {
		if s.src == src {
			return s.ids
		}
	}
	return nil
}

// addSupport records id as a supporter contributed by src, reporting
// whether it was new.
func (p *pattern) addSupport(src int, id relation.TupleID) bool {
	for i := range p.support {
		if p.support[i].src == src {
			var added bool
			p.support[i].ids, added = insertID(p.support[i].ids, id)
			return added
		}
	}
	p.support = append(p.support, support{src: src, ids: []relation.TupleID{id}})
	return true
}

// dropSupport withdraws id from src's supporters (the counter decrement
// of §4.2.2), discarding the mark once it empties.
func (p *pattern) dropSupport(src int, id relation.TupleID) {
	for i := range p.support {
		if p.support[i].src != src {
			continue
		}
		p.support[i].ids = removeID(p.support[i].ids, id)
		if len(p.support[i].ids) == 0 {
			p.support = append(p.support[:i], p.support[i+1:]...)
		}
		return
	}
}

// String names the pattern canonically — rule, condition element number
// and bound values — for audit reports and COND dumps.
func (p *pattern) String() string {
	var b strings.Builder
	ce := p.sh.ci.ce
	b.WriteString(ce.Rule.Name)
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(ce.CEN()))
	b.WriteByte('|')
	p.writeBindings(&b)
	return b.String()
}

// writeBindings renders the bound values as "x=4 y=\"a\"", variables in
// sorted order.
func (p *pattern) writeBindings(b *strings.Builder) {
	for k, v := range p.sh.vars {
		if k > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(v)
		b.WriteByte('=')
		b.WriteString(p.val(k).value().String())
	}
}

// shapeTest is one variable test of the condition element whose
// comparand the pattern supplies.
type shapeTest struct {
	pos  int
	op   value.Op
	slot int // index into the shape's variables
}

// shape holds the patterns of one COND relation that bind one variable
// set.
type shape struct {
	ci   *condIndex
	vars []string // sorted
	// tests are the condition element's tests on the shape's variables.
	tests []shapeTest
	// probe[k] is the tuple position where the condition element
	// equality-tests vars[k]. It is nil when some variable is reached only
	// through inequalities: no tuple value keys such a shape, so
	// detection scans it.
	probe []int
	pats  map[bindKey]*pattern
	n     int
}

func newShape(ci *condIndex, vars []string) *shape {
	sh := &shape{ci: ci, vars: vars, pats: make(map[bindKey]*pattern)}
	for _, vt := range ci.ce.VarTests {
		if k := indexOf(vars, vt.Var); k >= 0 {
			sh.tests = append(sh.tests, shapeTest{pos: vt.Pos, op: vt.Op, slot: k})
		}
	}
	for _, v := range vars {
		pos := eqPos(ci.ce, v)
		if pos < 0 {
			sh.probe = nil
			break
		}
		sh.probe = append(sh.probe, pos)
	}
	return sh
}

// empty returns a pattern-free copy of the shape (the audit's ground
// truth is rebuilt in such copies).
func (sh *shape) empty() *shape {
	return &shape{ci: sh.ci, vars: sh.vars, tests: sh.tests, probe: sh.probe, pats: make(map[bindKey]*pattern)}
}

// probeKey keys tuple t into the shape; ok is false when a probed
// attribute is nil, which no equality test admits.
func (sh *shape) probeKey(t relation.Tuple) (k bindKey, ok bool) {
	for i, pos := range sh.probe {
		if t[pos].IsNil() {
			return k, false
		}
		if i < keyWidth {
			k[i] = keyOf(t[pos])
		}
	}
	return k, true
}

// matches reports whether t satisfies the pattern's bindings. Together
// with condIndex.alone it is exactly rules.CE.MatchPattern(t, bindings)
// succeeding, without building the extended bindings.
func (sh *shape) matches(t relation.Tuple, p *pattern) bool {
	for _, st := range sh.tests {
		if !st.op.Apply(t[st.pos], p.val(st.slot).value()) {
			return false
		}
	}
	return true
}

// checkChain checks t against one bucket's patterns, appending the
// matches and counting the checks.
func (sh *shape) checkChain(t relation.Tuple, p *pattern, matched []*pattern, checked int64) ([]*pattern, int64) {
	for ; p != nil; p = p.next {
		checked++
		if sh.matches(t, p) {
			matched = append(matched, p)
		}
	}
	return matched, checked
}

// find returns the pattern binding the shape's variables to the values
// at positions pos of source tuple t, or nil.
func (sh *shape) find(t relation.Tuple, pos []int) *pattern {
	k := keyAt(t, pos)
	for p := sh.pats[k]; p != nil; p = p.next {
		if p.restAt(t, pos) {
			return p
		}
	}
	return nil
}

// add creates the pattern for the values at positions pos of t.
func (sh *shape) add(t relation.Tuple, pos []int) *pattern {
	p := &pattern{sh: sh, key: keyAt(t, pos)}
	for _, ps := range pos[min(len(pos), keyWidth):] {
		p.rest = append(p.rest, keyOf(t[ps]))
	}
	p.next = sh.pats[p.key]
	sh.pats[p.key] = p
	sh.n++
	return p
}

// remove unlinks p, reporting whether it was still stored.
func (sh *shape) remove(p *pattern) bool {
	head := sh.pats[p.key]
	if head == p {
		if p.next == nil {
			delete(sh.pats, p.key)
		} else {
			sh.pats[p.key] = p.next
		}
		sh.n--
		return true
	}
	for q := head; q != nil; q = q.next {
		if q.next == p {
			q.next = p.next
			sh.n--
			return true
		}
	}
	return false
}

// each visits every pattern of the shape.
func (sh *shape) each(fn func(*pattern)) {
	for _, head := range sh.pats {
		for p := head; p != nil; p = p.next {
			fn(p)
		}
	}
}

// twin returns the pattern of sh with p's bound values (p may belong to
// another copy of the shape), or nil.
func (sh *shape) twin(p *pattern) *pattern {
	for q := sh.pats[p.key]; q != nil; q = q.next {
		if equalKeys(q.rest, p.rest) {
			return q
		}
	}
	return nil
}

func keyAt(t relation.Tuple, pos []int) (k bindKey) {
	for i := 0; i < len(pos) && i < keyWidth; i++ {
		k[i] = keyOf(t[pos[i]])
	}
	return k
}

// restAt reports whether p's values beyond the hash key equal those at
// the remaining positions of t.
func (p *pattern) restAt(t relation.Tuple, pos []int) bool {
	for i, kv := range p.rest {
		if keyOf(t[pos[keyWidth+i]]) != kv {
			return false
		}
	}
	return true
}

func equalKeys(a, b []keyVal) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// edge is one maintenance route: tuples matching condition element src
// project the values at pos (one per shape variable) into sh.
type edge struct {
	src      int
	srcClass string
	sh       *shape
	pos      []int
}

// condIndex is the COND relation of one positive condition element: its
// original COND tuple (the element itself, which never gains support)
// and the matching patterns, indexed by shape.
type condIndex struct {
	ce *rules.CE
	st *store
	// local[i] is the index of the first equality test of VarTests[i]'s
	// variable earlier in this condition element, or -1.
	local  []int
	shapes []*shape
	// contributors lists the other positive condition elements of the
	// rule that can deliver a matching pattern here (they equality-bind a
	// variable this element references); the fire check requires a mark
	// from each. targets are the routes this element's own tuples
	// propagate along.
	contributors []int
	targets      []edge
	// partner is the other condition element's index when the rule is
	// exact (see exactPartner): detection then emits the instantiations
	// straight from the marks. -1 otherwise. ownPos and partnerPos are
	// where this element and the partner equality-test their first
	// shared variable.
	partner, ownPos, partnerPos int
}

func newCondIndex(ce *rules.CE, st *store) *condIndex {
	ci := &condIndex{ce: ce, st: st, partner: -1, local: make([]int, len(ce.VarTests))}
	for i, vt := range ce.VarTests {
		ci.local[i] = -1
		for j := 0; j < i; j++ {
			if w := ce.VarTests[j]; w.Var == vt.Var && w.Op == value.OpEq {
				ci.local[i] = j
				break
			}
		}
	}
	return ci
}

// alone reports whether t matches the original COND tuple — the
// condition element with no variable bound elsewhere, i.e.
// rules.CE.MatchPattern(t, nil) succeeding — without allocating.
func (ci *condIndex) alone(t relation.Tuple) bool {
	ce := ci.ce
	if !ce.MatchAlpha(t) {
		return false
	}
	for i, vt := range ce.VarTests {
		j := ci.local[i]
		if j < 0 {
			// A binding occurrence (an unset field cannot bind), or an
			// inequality on a variable bound elsewhere: unconstrained here.
			if vt.Op == value.OpEq && t[vt.Pos].IsNil() {
				return false
			}
			continue
		}
		if !vt.Op.Apply(t[vt.Pos], t[ce.VarTests[j].Pos]) {
			return false
		}
	}
	return true
}

// shapeFor returns the shape binding vars, creating it on first use.
func (ci *condIndex) shapeFor(vars []string) *shape {
	for _, sh := range ci.shapes {
		if equalStrings(sh.vars, vars) {
			return sh
		}
	}
	sh := newShape(ci, vars)
	ci.shapes = append(ci.shapes, sh)
	return sh
}

// detection is the outcome of one single-relation search.
type detection struct {
	fire bool
	// partners are, for an exact rule, the partner condition element's
	// supporters across the matched patterns, ascending. The slice may
	// alias a pattern's support and is valid until the next maintenance.
	partners []relation.TupleID
	checked  int64
}

// detect is the single search of one COND relation (§4.2), shared by the
// tuple and batch paths: tuple t is checked against the original COND
// tuple, one hash bucket per shape it keys, and every pattern of the
// shapes reachable only through inequalities. The rule fires when the
// union of marks across the matched patterns covers every contributor.
func (m *Matcher) detect(ci *condIndex, t relation.Tuple) (d detection) {
	d.checked = 1
	if !ci.alone(t) {
		return d
	}
	var buf [4]*pattern
	matched := buf[:0]
	ci.st.mu.Lock()
	for _, sh := range ci.shapes {
		if sh.probe == nil {
			for _, head := range sh.pats {
				matched, d.checked = sh.checkChain(t, head, matched, d.checked)
			}
			continue
		}
		if k, ok := sh.probeKey(t); ok {
			matched, d.checked = sh.checkChain(t, sh.pats[k], matched, d.checked)
		}
	}
	ci.st.mu.Unlock()
	if ci.partner >= 0 {
		d.partners = unionIDs(matched, ci.partner)
		d.fire = len(d.partners) > 0
		return d
	}
	d.fire = true
	for _, j := range ci.contributors {
		marked := false
		for _, p := range matched {
			if len(p.ids(j)) > 0 {
				marked = true
				break
			}
		}
		if !marked {
			d.fire = false
			break
		}
	}
	return d
}

// unionIDs merges the src supporters of the matched patterns, ascending
// and without duplicates.
func unionIDs(matched []*pattern, src int) []relation.TupleID {
	var out []relation.TupleID
	lists := 0
	for _, p := range matched {
		ids := p.ids(src)
		if len(ids) == 0 {
			continue
		}
		lists++
		if lists == 1 {
			out = ids
			continue
		}
		merged := make([]relation.TupleID, 0, len(out)+len(ids))
		merged = append(merged, out...)
		for _, id := range ids {
			merged, _ = insertID(merged, id)
		}
		out = merged
	}
	return out
}

// store is the COND relation set of one class: the condition elements
// defined on it, in rule order. mu guards their indexes (core-parallel
// propagates into them from several goroutines at once). live counts the
// class's WM tuples the matcher has been handed; it is touched only by
// the serial entry points (Insert, InsertBatch, DeleteBatch).
type store struct {
	mu    sync.Mutex
	conds []*condIndex
	live  int
}

// patterns returns every matching pattern of the store, sorted by name.
func (s *store) patterns() []*pattern {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*pattern
	for _, ci := range s.conds {
		for _, sh := range ci.shapes {
			sh.each(func(p *pattern) { out = append(out, p) })
		}
	}
	sortPatterns(out)
	return out
}

func sortPatterns(ps []*pattern) {
	names := make(map[*pattern]string, len(ps))
	for _, p := range ps {
		names[p] = p.String()
	}
	sort.Slice(ps, func(i, j int) bool { return names[ps[i]] < names[ps[j]] })
}

// insertID adds id to an ascending ID slice, reporting whether it was
// new. IDs are assigned in increasing order, so this is usually an
// append.
func insertID(ids []relation.TupleID, id relation.TupleID) ([]relation.TupleID, bool) {
	if n := len(ids); n == 0 || ids[n-1] < id {
		return append(ids, id), true
	}
	i := sort.Search(len(ids), func(i int) bool { return ids[i] >= id })
	if ids[i] == id {
		return ids, false
	}
	ids = append(ids, 0)
	copy(ids[i+1:], ids[i:])
	ids[i] = id
	return ids, true
}

// removeID drops id from an ascending ID slice.
func removeID(ids []relation.TupleID, id relation.TupleID) []relation.TupleID {
	i := sort.Search(len(ids), func(i int) bool { return ids[i] >= id })
	if i < len(ids) && ids[i] == id {
		return append(ids[:i], ids[i+1:]...)
	}
	return ids
}

// eqPos is the position of ce's first equality test on v, or -1.
func eqPos(ce *rules.CE, v string) int {
	for _, vt := range ce.VarTests {
		if vt.Var == v && vt.Op == value.OpEq {
			return vt.Pos
		}
	}
	return -1
}

func indexOf(list []string, s string) int {
	for i, x := range list {
		if x == s {
			return i
		}
	}
	return -1
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
