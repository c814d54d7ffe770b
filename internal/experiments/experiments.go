// Package experiments implements the reproduction harness: one function
// per experiment in the DESIGN.md index (E1–E13 except the retired E5,
// plus the paper's three figures), each returning a printable table. The cmd/psbench binary
// prints them; bench_test.go wraps the hot kernels in testing.B loops.
//
// The paper reports no measured numbers, so each table's "expected shape"
// note states the qualitative claim from the paper that the measurement
// substantiates.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"prodsys/internal/conflict"
	"prodsys/internal/match"
	"prodsys/internal/matchers"
	"prodsys/internal/metrics"
	"prodsys/internal/relation"
	"prodsys/internal/rules"
	"prodsys/internal/workload"
)

// Table is one experiment's output.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Note    string
}

// String renders the table with aligned columns.
func (t Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	for i, c := range t.Columns {
		fmt.Fprintf(&b, "%-*s  ", widths[i], c)
	}
	b.WriteByte('\n')
	for i := range t.Columns {
		b.WriteString(strings.Repeat("-", widths[i]))
		b.WriteString("  ")
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s  ", widths[i], cell)
			}
		}
		b.WriteByte('\n')
	}
	if t.Note != "" {
		b.WriteString("note: " + t.Note + "\n")
	}
	return b.String()
}

// session bundles a WM catalog with one matcher.
type session struct {
	set     *rules.Set
	db      *relation.DB
	matcher match.Matcher
	stats   *metrics.Set
	live    map[string][]relation.TupleID
}

// newSession compiles src and builds the matcher mk returns. It panics
// on setup errors (workload sources are trusted).
func newSession(src string, mk func(*rules.Set, *relation.DB, *conflict.Set, *metrics.Set) match.Matcher) *session {
	set, _, err := rules.CompileSource(src)
	if err != nil {
		panic(err)
	}
	stats := &metrics.Set{}
	db := relation.NewDB(stats)
	if err := rules.BuildDB(set, db); err != nil {
		panic(err)
	}
	m := mk(set, db, conflict.NewSet(set, stats), stats)
	return &session{set: set, db: db, matcher: m, stats: stats, live: map[string][]relation.TupleID{}}
}

// mustSession builds a session over the named matcher.
func mustSession(src, matcherName string) *session {
	return newSession(src, func(set *rules.Set, db *relation.DB, cs *conflict.Set, stats *metrics.Set) match.Matcher {
		m, err := matchers.New(matcherName, set, db, cs, stats)
		if err != nil {
			panic(err)
		}
		return m
	})
}

// insert stores the tuple in WM and notifies the matcher.
func (s *session) insert(class string, t relation.Tuple) relation.TupleID {
	rel, err := s.db.Lookup(class)
	if err != nil {
		panic(err)
	}
	id, err := rel.Insert(t)
	if err != nil {
		panic(err)
	}
	stored, _ := rel.Get(id)
	if err := s.matcher.Insert(class, id, stored); err != nil {
		panic(err)
	}
	s.live[class] = append(s.live[class], id)
	return id
}

// deleteOldest removes the oldest live tuple of the class (round-robin
// fallback across classes when the class is empty).
func (s *session) deleteOldest(class string) {
	ids := s.live[class]
	if len(ids) == 0 {
		for c, l := range s.live {
			if len(l) > 0 {
				class, ids = c, l
				break
			}
		}
		if len(ids) == 0 {
			return
		}
	}
	id := ids[0]
	s.live[class] = ids[1:]
	rel, err := s.db.Lookup(class)
	if err != nil {
		panic(err)
	}
	t, err := rel.Delete(id)
	if err != nil {
		panic(err)
	}
	if err := s.matcher.Delete(class, id, t); err != nil {
		panic(err)
	}
}

// apply runs a workload op stream.
func (s *session) apply(ops []workload.Op) {
	for _, op := range ops {
		if op.Delete {
			s.deleteOldest(op.Class)
			continue
		}
		s.insert(op.Class, op.Tuple)
	}
}

// timeIt measures fn.
func timeIt(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}

// ns renders a duration in microseconds with 1 decimal.
func us(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d.Nanoseconds())/1e3)
}

// All returns every experiment table, in index order, using default
// (moderate) parameters. scale < 1 shrinks the workloads for quick runs.
func All(scale float64) []Table {
	if scale <= 0 {
		scale = 1
	}
	n := func(base int) int {
		v := int(float64(base) * scale)
		if v < 1 {
			return 1
		}
		return v
	}
	return []Table{
		Fig1(),
		Fig2(),
		Fig3(),
		E1PropagationDepth([]int{2, 4, 8, 16, 32}, n(200)),
		E2MatchTime([]int{10, 100, 1000}, n(2000)),
		E3Space([]int{10, 100}, n(1000)),
		E4FalseDrops([]float64{0, 0.25, 0.5, 0.75, 0.9}, n(1000)),
		E6Serializability(6),
		E7ConcurrentThroughput(8, n(64), []int{1, 2, 4, 8}),
		E8ScheduleCount(),
		E9Negation(n(1500)),
		E10ViewMaintenance(n(500)),
		E11RuleQuery(n(1000), n(500)),
		E12SharedNetwork(5, 4, n(800)),
		E13ConcurrencyPotential(n(64)),
	}
}
