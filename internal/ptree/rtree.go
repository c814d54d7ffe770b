// Package ptree is the condition index of Predicate Indexing [STON86a,
// §2.3 of the paper], and only the index: rule conditions become
// rectangles in attribute space, stored in one R-tree per class. An
// inserted tuple is a point; searching the tree yields every condition
// whose variable-free restrictions admit the point — without touching
// base data. The same index answers rulebase queries such as "give me
// all the rules that apply on employees older than 55" (§4.2.3), which
// marker-style schemes cannot support. The matcher that probes it is the
// ptree filter of internal/recheck.
package ptree

import (
	"fmt"
	"strings"

	"prodsys/internal/value"
)

// bound is one end of an interval; inf marks an unbounded side.
type bound struct {
	v   value.V
	inf bool
}

// cmpCoord orders coordinate values: numerics before textual, each
// category internally ordered. Only called on non-infinite bounds.
func cmpCoord(a, b value.V) int {
	catA, catB := coordCat(a), coordCat(b)
	if catA != catB {
		if catA < catB {
			return -1
		}
		return 1
	}
	if cmp, ok := value.Compare(a, b); ok {
		return cmp
	}
	return 0
}

func coordCat(v value.V) int {
	if v.IsNumeric() {
		return 0
	}
	return 1
}

// Interval is a closed interval over one attribute; either side may be
// unbounded. Open endpoints from strict comparisons are widened to closed
// ones — the index may return false positives, which callers filter with
// an exact condition check.
type Interval struct {
	lo, hi bound
}

// FullInterval is unbounded on both sides.
func FullInterval() Interval {
	return Interval{lo: bound{inf: true}, hi: bound{inf: true}}
}

// NewInterval builds [lo, hi]; a nil value means unbounded on that side.
func NewInterval(lo, hi value.V) Interval {
	iv := FullInterval()
	if !lo.IsNil() {
		iv.lo = bound{v: lo}
	}
	if !hi.IsNil() {
		iv.hi = bound{v: hi}
	}
	return iv
}

// PointInterval is the degenerate interval [v, v].
func PointInterval(v value.V) Interval { return NewInterval(v, v) }

// contains reports whether the interval admits v.
func (iv Interval) contains(v value.V) bool {
	if v.IsNil() {
		return iv.lo.inf && iv.hi.inf
	}
	if !iv.lo.inf && cmpCoord(v, iv.lo.v) < 0 {
		return false
	}
	if !iv.hi.inf && cmpCoord(v, iv.hi.v) > 0 {
		return false
	}
	return true
}

// overlaps reports whether two intervals intersect.
func (iv Interval) overlaps(o Interval) bool {
	if !iv.hi.inf && !o.lo.inf && cmpCoord(iv.hi.v, o.lo.v) < 0 {
		return false
	}
	if !o.hi.inf && !iv.lo.inf && cmpCoord(o.hi.v, iv.lo.v) < 0 {
		return false
	}
	return true
}

// union extends the interval to cover o.
func (iv Interval) union(o Interval) Interval {
	out := iv
	if o.lo.inf || (!out.lo.inf && cmpCoord(o.lo.v, out.lo.v) < 0) {
		out.lo = o.lo
	}
	if o.hi.inf || (!out.hi.inf && cmpCoord(o.hi.v, out.hi.v) > 0) {
		out.hi = o.hi
	}
	return out
}

// span estimates the interval's extent for the least-enlargement
// heuristic; unbounded sides count as a large constant.
func (iv Interval) span() float64 {
	const wide = 1e9
	if iv.lo.inf || iv.hi.inf {
		return wide
	}
	if iv.lo.v.IsNumeric() && iv.hi.v.IsNumeric() {
		lo, hi := numOf(iv.lo.v), numOf(iv.hi.v)
		return hi - lo
	}
	if value.Equal(iv.lo.v, iv.hi.v) {
		return 0
	}
	return 1 // textual non-point interval
}

func numOf(v value.V) float64 {
	if v.Kind() == value.Int {
		return float64(v.AsInt())
	}
	return v.AsFloat()
}

// String renders the interval.
func (iv Interval) String() string {
	lo, hi := "-inf", "+inf"
	if !iv.lo.inf {
		lo = iv.lo.v.String()
	}
	if !iv.hi.inf {
		hi = iv.hi.v.String()
	}
	return "[" + lo + "," + hi + "]"
}

// Rect is a hyper-rectangle: one interval per attribute position.
type Rect []Interval

// FullRect is unbounded in every dimension.
func FullRect(dims int) Rect {
	r := make(Rect, dims)
	for i := range r {
		r[i] = FullInterval()
	}
	return r
}

// ContainsPoint reports whether the rectangle admits the point (one
// coordinate per dimension).
func (r Rect) ContainsPoint(pt []value.V) bool {
	for i, iv := range r {
		if !iv.contains(pt[i]) {
			return false
		}
	}
	return true
}

// Overlaps reports whether two rectangles intersect.
func (r Rect) Overlaps(o Rect) bool {
	for i := range r {
		if !r[i].overlaps(o[i]) {
			return false
		}
	}
	return true
}

// union returns the bounding rectangle of r and o.
func (r Rect) union(o Rect) Rect {
	out := make(Rect, len(r))
	for i := range r {
		out[i] = r[i].union(o[i])
	}
	return out
}

// enlargement estimates how much r must grow to cover o.
func (r Rect) enlargement(o Rect) float64 {
	grown := r.union(o)
	var d float64
	for i := range r {
		d += grown[i].span() - r[i].span()
	}
	return d
}

// String renders the rectangle.
func (r Rect) String() string {
	parts := make([]string, len(r))
	for i, iv := range r {
		parts[i] = iv.String()
	}
	return strings.Join(parts, "×")
}

// Item is an indexed payload: a condition rectangle with its owner.
type Item struct {
	Rect Rect
	Data any
}

// maxEntries is the R-tree node fan-out.
const maxEntries = 8

type node struct {
	leaf     bool
	rect     Rect
	children []*node // internal nodes
	items    []*Item // leaf nodes
}

func (n *node) recomputeRect(dims int) {
	var r Rect
	first := true
	if n.leaf {
		for _, it := range n.items {
			if first {
				r = append(Rect(nil), it.Rect...)
				first = false
				continue
			}
			r = r.union(it.Rect)
		}
	} else {
		for _, c := range n.children {
			if first {
				r = append(Rect(nil), c.rect...)
				first = false
				continue
			}
			r = r.union(c.rect)
		}
	}
	if first {
		r = FullRect(dims)
	}
	n.rect = r
}

// Tree is an R-tree over condition rectangles of one class.
type Tree struct {
	dims int
	root *node
	size int
}

// NewTree builds an empty tree over the given dimensionality (the class
// arity).
func NewTree(dims int) *Tree {
	return &Tree{dims: dims, root: &node{leaf: true}}
}

// Len returns the number of indexed items.
func (t *Tree) Len() int { return t.size }

// Insert adds an item.
func (t *Tree) Insert(it *Item) {
	if len(it.Rect) != t.dims {
		panic(fmt.Sprintf("ptree: rect has %d dims, tree has %d", len(it.Rect), t.dims))
	}
	t.size++
	split := t.insert(t.root, it)
	if split != nil {
		// Root split: grow the tree.
		newRoot := &node{leaf: false, children: []*node{t.root, split}}
		newRoot.recomputeRect(t.dims)
		t.root = newRoot
	}
}

// insert places the item under n, returning a new sibling if n split.
func (t *Tree) insert(n *node, it *Item) *node {
	if n.leaf {
		n.items = append(n.items, it)
		n.recomputeRect(t.dims)
		if len(n.items) > maxEntries {
			return t.splitLeaf(n)
		}
		return nil
	}
	// Choose the child needing least enlargement.
	best := 0
	bestD := n.children[0].rect.enlargement(it.Rect)
	for i := 1; i < len(n.children); i++ {
		if d := n.children[i].rect.enlargement(it.Rect); d < bestD {
			best, bestD = i, d
		}
	}
	split := t.insert(n.children[best], it)
	if split != nil {
		n.children = append(n.children, split)
	}
	n.recomputeRect(t.dims)
	if len(n.children) > maxEntries {
		return t.splitInternal(n)
	}
	return nil
}

// splitLeaf divides an overfull leaf in two (simple even split after a
// seed pick — linear-split flavour).
func (t *Tree) splitLeaf(n *node) *node {
	half := len(n.items) / 2
	sib := &node{leaf: true, items: append([]*Item(nil), n.items[half:]...)}
	n.items = n.items[:half]
	n.recomputeRect(t.dims)
	sib.recomputeRect(t.dims)
	return sib
}

func (t *Tree) splitInternal(n *node) *node {
	half := len(n.children) / 2
	sib := &node{leaf: false, children: append([]*node(nil), n.children[half:]...)}
	n.children = n.children[:half]
	n.recomputeRect(t.dims)
	sib.recomputeRect(t.dims)
	return sib
}

// SearchPoint visits every item whose rectangle contains the point.
// visited counts the nodes inspected (the index cost).
func (t *Tree) SearchPoint(pt []value.V, fn func(*Item) bool) (visited int) {
	var walk func(n *node) bool
	walk = func(n *node) bool {
		visited++
		if !n.rect.ContainsPoint(pt) {
			return true
		}
		if n.leaf {
			for _, it := range n.items {
				if it.Rect.ContainsPoint(pt) {
					if !fn(it) {
						return false
					}
				}
			}
			return true
		}
		for _, c := range n.children {
			if !walk(c) {
				return false
			}
		}
		return true
	}
	walk(t.root)
	return visited
}

// SearchRect visits every item whose rectangle overlaps the query
// rectangle — the rulebase-query primitive.
func (t *Tree) SearchRect(q Rect, fn func(*Item) bool) (visited int) {
	var walk func(n *node) bool
	walk = func(n *node) bool {
		visited++
		if !n.rect.Overlaps(q) {
			return true
		}
		if n.leaf {
			for _, it := range n.items {
				if it.Rect.Overlaps(q) {
					if !fn(it) {
						return false
					}
				}
			}
			return true
		}
		for _, c := range n.children {
			if !walk(c) {
				return false
			}
		}
		return true
	}
	walk(t.root)
	return visited
}
