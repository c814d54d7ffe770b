// Package view maintains materialized views on top of the matching
// machinery, realizing the paper's observation that "the problem of
// maintaining a set of condition-action rules is the same as the problem
// of maintaining materialized views and triggers" (§2.3, §6).
//
// A view is defined as a production with an empty RHS: its LHS is the
// view qualification (Buneman & Clemons' monitored condition), and the
// view's columns are the qualification's variables. Instantiations
// entering or leaving the conflict set are exactly the add and delete
// triggers of [BUNE79]; the matching-pattern matcher makes the
// maintenance incremental.
package view

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"prodsys/internal/conflict"
	"prodsys/internal/match"
	"prodsys/internal/matchers"
	"prodsys/internal/metrics"
	"prodsys/internal/relation"
	"prodsys/internal/rules"
	"prodsys/internal/value"
)

// row is one materialized view row: the projected variable values and
// the number of qualification instantiations deriving it.
type row struct {
	values []string
	count  int
}

// View is one materialized view.
type View struct {
	Name    string
	Columns []string // variable names, sorted
	slots   []int    // each column's slot in the view rule's bindings

	mu   sync.Mutex
	rows map[string]*row
}

// Len returns the number of distinct rows.
func (v *View) Len() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.rows)
}

// Rows renders the view contents sorted, one "col=val" list per row, with
// the derivation count.
func (v *View) Rows() []string {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]string, 0, len(v.rows))
	for _, r := range v.rows {
		out = append(out, fmt.Sprintf("%s ×%d", strings.Join(r.values, " "), r.count))
	}
	sort.Strings(out)
	return out
}

// Contains reports whether the view currently derives a row with the
// given rendered values (in column order, "col=value" with symbols and
// strings unquoted).
func (v *View) Contains(rendered ...string) bool {
	want := strings.Join(rendered, " ")
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, r := range v.rows {
		if strings.Join(r.values, " ") == want {
			return true
		}
	}
	return false
}

// displayValue renders a value for view rows: textual values unquoted.
func displayValue(v value.V) string {
	if v.Kind() == value.Str || v.Kind() == value.Sym {
		return v.AsString()
	}
	return v.String()
}

// apply processes one add/delete trigger, reading the columns from the
// instantiation's tuples.
func (v *View) apply(added bool, in *conflict.Instantiation) {
	vals := make([]string, len(v.Columns))
	keys := make([]string, len(v.Columns))
	for i, c := range v.Columns {
		val := in.Rule.Value(in.Tuples, v.slots[i])
		vals[i] = c + "=" + displayValue(val)
		keys[i] = c + "=" + val.Key().String()
	}
	key := strings.Join(keys, " ")
	v.mu.Lock()
	defer v.mu.Unlock()
	if added {
		r := v.rows[key]
		if r == nil {
			r = &row{values: vals}
			v.rows[key] = r
		}
		r.count++
		return
	}
	if r := v.rows[key]; r != nil {
		r.count--
		if r.count <= 0 {
			delete(v.rows, key)
		}
	}
}

// Manager maintains a set of views over a shared WM catalog.
type Manager struct {
	set     *rules.Set
	db      *relation.DB
	matcher match.Matcher
	views   map[string]*View
}

// NewManager compiles a source whose productions (all with empty RHS)
// define the views, and attaches incremental maintenance over db. Every
// class src declares must exist in db with the same attributes in the same
// order; otherwise NewManager returns an error.
func NewManager(src string, db *relation.DB, stats *metrics.Set) (*Manager, error) {
	set, _, err := rules.CompileSource(src)
	if err != nil {
		return nil, err
	}
	for _, name := range set.ClassNames() {
		rel, err := db.Lookup(name)
		if err != nil {
			return nil, fmt.Errorf("view: %w", err)
		}
		if got, want := set.Classes[name].String(), rel.Schema().String(); got != want {
			return nil, fmt.Errorf("view: class declared as %s, working memory has %s", got, want)
		}
	}
	for _, r := range set.Rules {
		if len(r.Actions) != 0 {
			return nil, fmt.Errorf("view %s: view definitions must have an empty RHS", r.Name)
		}
	}
	mgr := &Manager{set: set, db: db, views: make(map[string]*View)}
	for _, r := range set.Rules {
		cols := map[string]bool{}
		for _, ce := range r.CEs {
			if ce.Negated {
				continue
			}
			for _, v := range ce.Vars() {
				cols[v] = true
			}
		}
		names := make([]string, 0, len(cols))
		for c := range cols {
			names = append(names, c)
		}
		sort.Strings(names)
		slots := make([]int, len(names))
		for i, c := range names {
			slots[i], _ = r.Slot(c)
		}
		mgr.views[r.Name] = &View{Name: r.Name, Columns: names, slots: slots, rows: make(map[string]*row)}
	}
	cs := conflict.NewSet(set, stats)
	cs.SetObserver(func(added bool, in *conflict.Instantiation) {
		if v := mgr.views[in.Rule.Name]; v != nil {
			v.apply(added, in)
		}
	})
	if mgr.matcher, err = matchers.New("core", set, db, cs, stats); err != nil {
		return nil, err
	}
	return mgr, nil
}

// View returns the named view.
func (m *Manager) View(name string) (*View, bool) {
	v, ok := m.views[name]
	return v, ok
}

// Names lists the defined views, sorted.
func (m *Manager) Names() []string {
	out := make([]string, 0, len(m.views))
	for n := range m.views {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Apply propagates one write unit's net WM delta, already applied to the
// db relations, through the view matcher's batch path; a class no view
// declares has nothing to maintain there.
func (m *Manager) Apply(d *relation.Delta) error {
	_, err := match.ApplyDelta(m.matcher, d)
	return err
}
