// Package relation implements the small relational storage engine the
// paper assumes as its substrate: named relations with positional
// attributes, hash indexes, selection and join access paths, and simulated
// page-I/O accounting.
//
// Working-memory classes declared with OPS5's literalize command map to
// relations here (§3.2 of the paper); the COND relations of the simplified
// and matching-pattern algorithms are also hosted on this engine.
//
// A stored tuple is immutable. Insert, InsertBatch and InsertAt store a
// clone of the caller's tuple; Get, Scan and the tuples a join reads are
// the stored ones, lent without copying, and must never be written. A
// caller that edits a tuple — OPS5 modify, QUEL replace — clones it first
// and stores the edit as a new tuple.
package relation

import (
	"fmt"
	"strings"

	"prodsys/internal/value"
)

// Schema names a relation and its attributes. Attribute types are not
// declared, mirroring OPS5 literalize ("except types are not explicitly
// defined", §3.2).
type Schema struct {
	name  string
	attrs []string
	pos   map[string]int
}

// NewSchema builds a schema, rejecting empty names and duplicate
// attributes.
func NewSchema(name string, attrs ...string) (*Schema, error) {
	if name == "" {
		return nil, fmt.Errorf("relation: empty relation name")
	}
	if len(attrs) == 0 {
		return nil, fmt.Errorf("relation %s: no attributes", name)
	}
	pos := make(map[string]int, len(attrs))
	for i, a := range attrs {
		if a == "" {
			return nil, fmt.Errorf("relation %s: empty attribute name at position %d", name, i)
		}
		if _, dup := pos[a]; dup {
			return nil, fmt.Errorf("relation %s: duplicate attribute %q", name, a)
		}
		pos[a] = i
	}
	return &Schema{name: name, attrs: append([]string(nil), attrs...), pos: pos}, nil
}

// MustSchema is NewSchema that panics on error; for tests and fixtures.
func MustSchema(name string, attrs ...string) *Schema {
	s, err := NewSchema(name, attrs...)
	if err != nil {
		panic(err)
	}
	return s
}

// Name returns the relation name.
func (s *Schema) Name() string { return s.name }

// Arity returns the number of attributes.
func (s *Schema) Arity() int { return len(s.attrs) }

// Attrs returns the attribute names in declaration order.
func (s *Schema) Attrs() []string { return append([]string(nil), s.attrs...) }

// Attr returns the attribute name at position i.
func (s *Schema) Attr(i int) string { return s.attrs[i] }

// Pos returns the position of the named attribute.
func (s *Schema) Pos(attr string) (int, bool) {
	p, ok := s.pos[attr]
	return p, ok
}

// String renders the schema as Name(attr1, attr2, ...).
func (s *Schema) String() string {
	return s.name + "(" + strings.Join(s.attrs, ", ") + ")"
}

// Tuple is a row: one value per schema attribute.
type Tuple []value.V

// Clone returns a copy of t.
func (t Tuple) Clone() Tuple {
	if t == nil {
		return nil
	}
	return append(Tuple(nil), t...)
}

// Equal reports element-wise value.Equal over two tuples of the same
// arity.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if !value.Equal(t[i], u[i]) {
			return false
		}
	}
	return true
}

// String renders the tuple as (v1, v2, ...).
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Restriction is a single-attribute predicate "attr op value" used by
// selection access paths.
type Restriction struct {
	Pos int
	Op  value.Op
	Val value.V
}

// Satisfies reports whether tuple t meets the restriction.
func (r Restriction) Satisfies(t Tuple) bool {
	if r.Pos < 0 || r.Pos >= len(t) {
		return false
	}
	return r.Op.Apply(t[r.Pos], r.Val)
}

// SatisfiesAll reports whether t meets every restriction.
func SatisfiesAll(t Tuple, rs []Restriction) bool {
	for _, r := range rs {
		if !r.Satisfies(t) {
			return false
		}
	}
	return true
}
