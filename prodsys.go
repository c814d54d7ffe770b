// Package prodsys is a DBMS-backed production rule system: a Go
// reproduction of Sellis, Lin and Raschid, "Implementing Large Production
// Systems in a DBMS Environment: Concepts and Algorithms" (SIGMOD 1988).
//
// Rule programs are written in an OPS5 subset (literalize declarations,
// productions, initial facts). Working memory lives in a small relational
// engine; several interchangeable matching algorithms maintain the conflict
// set:
//
//   - MatcherRete — the classic main-memory Rete network (the AI way,
//     §2.2/§3.1);
//   - MatcherReteShared — the same network with beta-prefix sharing, the
//     multiple-query optimization the paper names as future work (§6);
//   - MatcherRequery — the simplified algorithm: no intermediate storage,
//     joins re-evaluated per update (§4.1);
//   - MatcherCore / MatcherCoreParallel — the paper's matching-pattern
//     algorithm with per-RCE supports and optional parallel propagation
//     (§4.2);
//   - MatcherMarker — POSTGRES-style Basic Locking rule indexing
//     (§2.3);
//   - MatcherPTree — Predicate Indexing through an R-tree over condition
//     rectangles (§2.3), which also answers rulebase queries.
//
// Execution is either serial OPS5-style or concurrent: every applicable
// instantiation runs as a transaction under two-phase locking with the
// commit point after maintenance, per §5.
//
// Quick start:
//
//	sys, err := prodsys.Load(src, prodsys.Options{})
//	res, err := sys.Run()
//	fmt.Println(sys.WM())
package prodsys

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"prodsys/internal/audit"
	"prodsys/internal/conflict"
	"prodsys/internal/core"
	"prodsys/internal/engine"
	"prodsys/internal/fsx"
	"prodsys/internal/joiner"
	"prodsys/internal/lang"
	"prodsys/internal/marker"
	"prodsys/internal/match"
	"prodsys/internal/metrics"
	"prodsys/internal/ptree"
	"prodsys/internal/quel"
	"prodsys/internal/relation"
	"prodsys/internal/requery"
	"prodsys/internal/rete"
	"prodsys/internal/rules"
	"prodsys/internal/trace"
	"prodsys/internal/value"
	"prodsys/internal/view"
	"prodsys/internal/wal"
)

// Matcher selects the matching algorithm.
type Matcher string

// The available matchers.
const (
	MatcherRete         Matcher = "rete"
	MatcherReteShared   Matcher = "rete-shared"
	MatcherRequery      Matcher = "requery"
	MatcherCore         Matcher = "core"
	MatcherCoreParallel Matcher = "core-parallel"
	MatcherMarker       Matcher = "marker"
	MatcherPTree        Matcher = "ptree"
)

// Matchers lists every available matcher kind.
func Matchers() []Matcher {
	return []Matcher{MatcherRete, MatcherReteShared, MatcherRequery, MatcherCore, MatcherCoreParallel, MatcherMarker, MatcherPTree}
}

// Strategy selects the conflict-resolution strategy for serial runs.
type Strategy string

// The available strategies.
const (
	// StrategyFIFO fires the oldest instantiation first (default).
	StrategyFIFO Strategy = "fifo"
	// StrategyLEX prefers instantiations supported by recent WM, OPS5's
	// LEX ordering.
	StrategyLEX Strategy = "lex"
	// StrategyPriority orders by declared rule priority.
	StrategyPriority Strategy = "priority"
	// StrategyRandom picks uniformly (seeded by Options.Seed).
	StrategyRandom Strategy = "random"
)

// Strategies lists every available conflict-resolution strategy.
func Strategies() []Strategy {
	return []Strategy{StrategyFIFO, StrategyLEX, StrategyPriority, StrategyRandom}
}

// Storage selects the tuple storage backend serving working memory.
type Storage string

// The available storage backends.
const (
	// StorageRow is the row-major backend: a TupleID-keyed map with
	// hash+ordered secondary indexes — best for tuple-at-a-time updates
	// and point access (default).
	StorageRow Storage = Storage(relation.StorageRow)
	// StorageColumnar is the column-major backend: per-attribute value
	// arrays with bulk appends, optimized for set-oriented Batch /
	// ApplyDelta maintenance.
	StorageColumnar Storage = Storage(relation.StorageColumnar)
)

// Storages lists every available storage backend.
func Storages() []Storage {
	kinds := relation.StorageKinds()
	out := make([]Storage, len(kinds))
	for i, k := range kinds {
		out[i] = Storage(k)
	}
	return out
}

// Planner selects how the joiner-based matchers order LHS joins.
type Planner string

// The available planners.
const (
	// PlannerCost compiles greedy cost-based join orders from relation
	// statistics and caches them per (rule, delta class), invalidating
	// on cardinality drift (default).
	PlannerCost Planner = "cost"
	// PlannerFixed evaluates condition elements in LHS source order —
	// the pre-planner behavior and the crosscheck oracle.
	PlannerFixed Planner = "fixed"
)

// Planners lists every available planner mode.
func Planners() []Planner {
	return []Planner{PlannerCost, PlannerFixed}
}

// Sentinel errors; returned errors wrap these, test with errors.Is.
var (
	// ErrUnknownClass marks an operation naming an undeclared WM class.
	ErrUnknownClass = engine.ErrUnknownClass
	// ErrUnknownMatcher marks an Options.Matcher not in Matchers().
	ErrUnknownMatcher = errors.New("unknown matcher")
	// ErrUnknownStrategy marks an Options.Strategy not in Strategies().
	ErrUnknownStrategy = errors.New("unknown strategy")
	// ErrUnknownStorage marks an Options.Storage not in Storages().
	ErrUnknownStorage = relation.ErrUnknownStorage
	// ErrUnknownPlanner marks an Options.Planner not in Planners().
	ErrUnknownPlanner = errors.New("unknown planner")
	// ErrNoPlanner marks a Plan call on a system running with
	// PlannerFixed (no planner to ask).
	ErrNoPlanner = errors.New("planner disabled")
	// ErrUnknownRule marks a Plan call naming a rule not in the program.
	ErrUnknownRule = errors.New("unknown rule")
	// ErrArity marks an Assert with more values than the class has
	// attributes.
	ErrArity = relation.ErrArity
	// ErrReadOnly marks a write rejected because a WAL failure flipped
	// the system into read-only degraded mode; see System.ReadOnly.
	ErrReadOnly = engine.ErrReadOnly
	// ErrClosed marks a write attempted after System.Close.
	ErrClosed = engine.ErrClosed
)

// Options configures a System.
type Options struct {
	// Matcher selects the matching algorithm; default MatcherCore.
	Matcher Matcher
	// Strategy selects the conflict-resolution strategy for serial runs;
	// default StrategyFIFO.
	Strategy Strategy
	// Seed seeds the random strategy and the engine's private RNG (the
	// deadlock-victim retry jitter), making both reproducible run-to-run.
	Seed int64
	// Storage selects the tuple storage backend serving every WM class;
	// default StorageRow (or the PRODSYS_STORAGE environment variable
	// when set to a valid backend).
	Storage Storage
	// StorageByClass overrides the storage backend for individual WM
	// classes, keyed by class name; classes not listed use Storage.
	StorageByClass map[string]Storage
	// Planner selects how LHS joins are ordered in the joiner-based
	// matchers (requery, core, core-parallel, marker, ptree): the
	// default PlannerCost compiles and caches cost-based join orders
	// from relation statistics; PlannerFixed keeps the source-order
	// evaluation. Rete matchers are unaffected either way.
	Planner Planner
	// Workers sizes the concurrent executor pool (default 4).
	Workers int
	// MaxFirings caps rule firings (default 10000).
	MaxFirings int
	// Out receives the output of write actions; default os.Stdout. Use
	// io.Discard to silence.
	Out io.Writer
	// CommitEarly injects the §5.2 protocol violation (testing only).
	CommitEarly bool
	// SetAtATime fires every eligible instantiation of the selected rule
	// per cycle (the set-oriented execution of §5.1).
	SetAtATime bool
	// TxnTimeout bounds each firing transaction: a transaction whose lock
	// waits exceed the budget is aborted (its effects rolled back, locks
	// released) and retried — the watchdog that keeps a stuck firing from
	// wedging the executor. Zero disables the watchdog.
	TxnTimeout time.Duration

	// WALPath enables crash-safe durability: every committed unit (rule
	// firing, batch, Assert/Retract) is appended to the write-ahead log
	// at this path at its commit point. If the path already holds state
	// from an earlier run, Load recovers it — checkpoint plus committed
	// log tail, replayed through match maintenance — and the program's
	// initial facts are NOT re-loaded. Empty disables durability.
	WALPath string
	// WALSync selects the log's sync policy; default WALSyncAlways.
	WALSync WALSyncMode
	// WALSyncEvery is the WALSyncInterval period; default 100ms.
	WALSyncEvery time.Duration
	// WALCheckpointEvery compacts the log (checkpoint snapshot + fresh
	// log) after that many committed units; 0 means only explicit
	// System.Checkpoint calls compact.
	WALCheckpointEvery int
	// WALFS substitutes the filesystem under the log — the
	// fault-injection hook used by the crash-recovery tests. nil means
	// the real filesystem.
	WALFS fsx.FS

	// ReplicaOf starts the system as a warm replica of the primary at
	// this base URL (e.g. "http://primary:7480"): the program's initial
	// facts are NOT loaded, writes fail with ErrReplica, and state
	// arrives solely through the replication apply surface
	// (internal/replica tails the primary's GET /v1/wal feed). Promotion
	// (System.Promote) flips the system writable. Empty means a normal
	// primary. See docs/REPLICATION.md.
	ReplicaOf string
}

// Result summarizes a run.
type Result struct {
	// Firings counts rules fired.
	Firings int
	// Cycles counts recognize-act cycles (serial) or transaction rounds
	// (concurrent).
	Cycles int
	// Halted reports whether a halt action stopped the run.
	Halted bool
	// Aborts counts transactions aborted in concurrent runs.
	Aborts int
	// Panics counts firings whose panic was contained: effects rolled
	// back, locks released, nothing committed to the WAL.
	Panics int
}

// System is a loaded production system.
type System struct {
	set     *rules.Set
	prog    *lang.Program
	db      *relation.DB
	stats   *metrics.Set
	matcher match.Matcher
	eng     *engine.Engine
	ptree   *ptree.Matcher // non-nil when Matcher == MatcherPTree
	views   *view.Manager
	quelIn  *quel.Interp
	out     io.Writer
	tracer  *trace.Tracer
	planner *joiner.Planner // nil when Options.Planner == PlannerFixed

	wal      *wal.Log      // non-nil while durability is active
	recovery *RecoveryInfo // what Load recovered; nil without a WAL

	replicaOf string // primary base URL while in replica mode ("" = primary)

	closeMu sync.Mutex // serializes Close against itself
	closed  bool       // Close has run; later calls return nil

	aud *audit.Auditor // lazily built by Audit; keeps the sampling cursor
}

// Load parses, compiles and initializes a production system from OPS5
// subset source: literalize declarations, productions, and initial facts.
func Load(src string, opts Options) (*System, error) {
	set, prog, err := rules.CompileSource(src)
	if err != nil {
		return nil, err
	}
	stats := &metrics.Set{}
	db := relation.NewDB(stats)
	if err := db.SetDefaultStorage(relation.StorageKind(opts.Storage)); err != nil {
		return nil, fmt.Errorf("prodsys: %w", err)
	}
	for class, k := range opts.StorageByClass {
		if err := db.SetClassStorage(class, relation.StorageKind(k)); err != nil {
			return nil, fmt.Errorf("prodsys: %w", err)
		}
	}
	if err := rules.BuildDB(set, db); err != nil {
		return nil, err
	}
	cs := conflict.NewSet(stats)
	tr := trace.New() // disabled until System.Trace; emit points are no-ops
	cs.SetTracer(tr)
	sys := &System{set: set, prog: prog, db: db, stats: stats, tracer: tr}
	switch opts.Planner {
	case "", PlannerCost:
		sys.planner = joiner.NewPlanner(db, stats)
	case PlannerFixed:
		// leave sys.planner nil: matchers keep LHS source order
	default:
		return nil, fmt.Errorf("prodsys: %w %q", ErrUnknownPlanner, opts.Planner)
	}
	switch opts.Matcher {
	case MatcherRete:
		sys.matcher = rete.New(set, cs, stats)
	case MatcherReteShared:
		sys.matcher = rete.NewShared(set, cs, stats)
	case MatcherRequery:
		sys.matcher = requery.New(set, db, cs, stats)
	case MatcherCore, "":
		sys.matcher = core.New(set, db, cs, stats)
	case MatcherCoreParallel:
		sys.matcher = core.New(set, db, cs, stats, core.WithParallelPropagation())
	case MatcherMarker:
		sys.matcher = marker.New(set, db, cs, stats)
	case MatcherPTree:
		pm := ptree.NewMatcher(set, db, cs, stats)
		sys.matcher = pm
		sys.ptree = pm
	default:
		return nil, fmt.Errorf("prodsys: %w %q", ErrUnknownMatcher, opts.Matcher)
	}
	match.AttachTracer(sys.matcher, tr)
	match.AttachPlanner(sys.matcher, sys.planner)
	tr.SetPlanText(func(rule string) string { return sys.planText(rule) })
	var strat conflict.Strategy
	switch opts.Strategy {
	case "", StrategyFIFO:
		strat = conflict.FIFO{}
	case StrategyLEX:
		strat = conflict.LEX{}
	case StrategyPriority:
		strat = conflict.Priority{}
	case StrategyRandom:
		strat = conflict.NewRandom(opts.Seed)
	default:
		return nil, fmt.Errorf("prodsys: %w %q", ErrUnknownStrategy, opts.Strategy)
	}
	out := opts.Out
	if out == nil {
		out = os.Stdout
	}
	sys.out = out
	sys.eng = engine.New(set, db, sys.matcher, stats, engine.Config{
		Strategy:    strat,
		MaxFirings:  opts.MaxFirings,
		Workers:     opts.Workers,
		Out:         out,
		CommitEarly: opts.CommitEarly,
		SetAtATime:  opts.SetAtATime,
		Tracer:      tr,
		TxnTimeout:  opts.TxnTimeout,
		Seed:        opts.Seed,
	})
	if err := sys.openWAL(opts); err != nil {
		return nil, err
	}
	if opts.ReplicaOf != "" {
		// Replica: working memory is the primary's, delivered over the
		// feed — never the program's initial facts (a recovered local
		// log is kept; the feed resumes from or re-bootstraps past it).
		sys.replicaOf = opts.ReplicaOf
		sys.eng.SetReplica(true)
		return sys, nil
	}
	if sys.recovery == nil || !sys.recovery.Recovered {
		// Fresh start: load the program's initial facts. With a WAL
		// attached each fact is logged, so the next open recovers them
		// instead of re-reading the program.
		if err := sys.eng.LoadFacts(prog); err != nil {
			sys.Close()
			return nil, err
		}
	}
	return sys, nil
}

// LoadFile is Load reading the source from a file.
func LoadFile(path string, opts Options) (*System, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Load(string(data), opts)
}

// Run executes the serial OPS5 recognize-act cycle until quiescence or
// halt. It is a thin wrapper over RunContext with a background
// context — the context-taking variant is the primary entry point, and
// new execution features land there.
func (s *System) Run() (Result, error) {
	return s.RunContext(context.Background())
}

// RunConcurrent executes the conflict set with concurrent transactional
// firing under two-phase locking (§5). It is a thin wrapper over
// RunConcurrentContext with a background context — the context-taking
// variant is the primary entry point, and new execution features land
// there.
func (s *System) RunConcurrent() (Result, error) {
	return s.RunConcurrentContext(context.Background())
}

// toValue converts a Go value to a working-memory value. Supported:
// int/int64/float64/string; a string is stored as a symbol.
func toValue(v any) (value.V, error) {
	switch x := v.(type) {
	case int:
		return value.OfInt(int64(x)), nil
	case int64:
		return value.OfInt(x), nil
	case float64:
		return value.OfFloat(x), nil
	case string:
		return value.OfSym(x), nil
	case value.V:
		return x, nil
	case nil:
		return value.V{}, nil
	default:
		return value.V{}, fmt.Errorf("prodsys: unsupported value type %T", v)
	}
}

// tupleFor validates class and arity and builds the WM tuple for an
// assertion. Values shorter than the class arity leave trailing
// attributes unset.
func (s *System) tupleFor(class string, values []any) (relation.Tuple, error) {
	schema, ok := s.set.Classes[class]
	if !ok {
		return nil, fmt.Errorf("prodsys: %w %s", ErrUnknownClass, class)
	}
	if len(values) > schema.Arity() {
		return nil, fmt.Errorf("prodsys: class %s: %w: has %d attributes, got %d values", class, ErrArity, schema.Arity(), len(values))
	}
	t := make(relation.Tuple, schema.Arity())
	for i, v := range values {
		vv, err := toValue(v)
		if err != nil {
			return nil, err
		}
		t[i] = vv
	}
	return t, nil
}

// Batch collects working-memory assertions and retractions for one
// set-oriented, transactional submission. Build with System.Batch, chain
// Assert/Retract calls, then Commit.
type Batch struct {
	sys       *System
	ops       []engine.DeltaOp
	err       error // first build error, reported at Commit
	committed bool
}

// Batch starts an empty change batch against this system.
func (s *System) Batch() *Batch { return &Batch{sys: s} }

// Assert queues an assertion of a working-memory element. The tuple ID
// is assigned at Commit.
func (b *Batch) Assert(class string, values ...any) *Batch {
	if b.err != nil {
		return b
	}
	if b.committed {
		b.err = errors.New("prodsys: batch already committed")
		return b
	}
	t, err := b.sys.tupleFor(class, values)
	if err != nil {
		b.err = err
		return b
	}
	b.ops = append(b.ops, engine.DeltaOp{Class: class, Tuple: t})
	return b
}

// Retract queues a retraction of the identified working-memory element.
func (b *Batch) Retract(class string, id uint64) *Batch {
	if b.err != nil {
		return b
	}
	if b.committed {
		b.err = errors.New("prodsys: batch already committed")
		return b
	}
	b.ops = append(b.ops, engine.DeltaOp{Retract: true, Class: class, ID: relation.TupleID(id)})
	return b
}

// Len reports the number of queued operations.
func (b *Batch) Len() int { return len(b.ops) }

// Commit applies the batch atomically with respect to other batches:
// relation-level write locks are taken once per touched class, the WM
// changes apply in order, and match maintenance runs set-at-a-time —
// once per (class, direction) group — before the locks release. The
// returned slice is aligned with the queued operations: the assigned
// tuple ID at assertion positions, zero at retractions. A batch commits
// at most once; further Commit calls (and further Assert/Retract) fail.
func (b *Batch) Commit() ([]uint64, error) {
	return b.CommitContext(context.Background())
}

// CommitContext is Commit honoring ctx: cancellation is observed before
// the batch acquires its relation locks; once the locks are held the
// batch applies in full.
func (b *Batch) CommitContext(ctx context.Context) ([]uint64, error) {
	if b.err != nil {
		return nil, b.err
	}
	if b.committed {
		return nil, errors.New("prodsys: batch already committed")
	}
	b.committed = true
	ids, err := b.sys.eng.ApplyDeltaContext(ctx, b.ops)
	out := make([]uint64, len(ids))
	for i, id := range ids {
		out[i] = uint64(id)
	}
	return out, err
}

// Assert inserts a working-memory element, running the match maintenance
// process, and returns its tuple ID. It is a single-operation Batch;
// values shorter than the class arity leave trailing attributes unset.
func (s *System) Assert(class string, values ...any) (uint64, error) {
	ids, err := s.Batch().Assert(class, values...).Commit()
	if err != nil {
		return 0, err
	}
	return ids[0], nil
}

// Retract deletes the identified working-memory element. It is a
// single-operation Batch.
func (s *System) Retract(class string, id uint64) error {
	_, err := s.Batch().Retract(class, id).Commit()
	return err
}

// ConflictKeys returns the current conflict set's instantiation keys
// ("Rule|id|id|…"), sorted.
func (s *System) ConflictKeys() []string {
	return s.eng.ConflictSet().Keys()
}

// WM renders the whole working memory canonically, one tuple per line.
func (s *System) WM() string { return s.eng.SnapshotWM() }

// WMClass renders one class's live tuples, "id: (v, ...)" per line,
// ascending by ID.
func (s *System) WMClass(class string) []string {
	rel, ok := s.db.Get(class)
	if !ok {
		return nil
	}
	var out []string
	rel.Scan(func(id relation.TupleID, t relation.Tuple) bool {
		out = append(out, fmt.Sprintf("%d: %s", id, t))
		return true
	})
	return out
}

// Classes lists the declared working-memory classes.
func (s *System) Classes() []string { return s.set.ClassNames() }

// RuleNames lists the loaded rules in definition order.
func (s *System) RuleNames() []string {
	out := make([]string, len(s.set.Rules))
	for i, r := range s.set.Rules {
		out[i] = r.Name
	}
	return out
}

// MatcherName reports the active matching algorithm.
func (s *System) MatcherName() string { return s.matcher.Name() }

// RulebaseQuery answers "which rules have a condition on class whose
// restriction of attr intersects [lo, hi]" (§4.2.3; nil bound =
// unbounded). Only available with MatcherPTree.
func (s *System) RulebaseQuery(class, attr string, lo, hi any) ([]string, error) {
	if s.ptree == nil {
		return nil, fmt.Errorf("prodsys: rulebase queries require MatcherPTree")
	}
	loV, err := toValue(lo)
	if err != nil {
		return nil, err
	}
	hiV, err := toValue(hi)
	if err != nil {
		return nil, err
	}
	rs := s.ptree.Index().RulesInRange(class, attr, loV, hiV)
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.Name
	}
	return out, nil
}

// QuelResult reports what one QUEL statement did.
type QuelResult struct {
	// Columns and Rows hold a retrieve statement's output.
	Columns []string
	Rows    [][]string
	// Affected counts tuples changed by append/delete/replace.
	Affected int
	// Fired counts the trigger firings the statement caused.
	Fired int
}

// quelInterp lazily builds the QUEL interpreter over this system.
func (s *System) quelInterp() *quel.Interp {
	if s.quelIn == nil {
		classes := map[string][]string{}
		for name, schema := range s.set.Classes {
			classes[name] = schema.Attrs()
		}
		s.quelIn = quel.NewInterp(s.eng, quel.NewTranslator(classes))
	}
	return s.quelIn
}

// Quel executes one QUEL statement (§2.3) against the working memory:
// range declarations, retrieve, append, delete, replace. Data changes run
// the loaded triggers to quiescence before returning. ALWAYS commands
// must be part of the program loaded with LoadQuel — they compile into
// rules.
func (s *System) Quel(stmt string) (*QuelResult, error) {
	r, err := s.quelInterp().Exec(stmt)
	if err != nil {
		return nil, err
	}
	return &QuelResult{Columns: r.Columns, Rows: r.Rows, Affected: r.Affected, Fired: r.Fired}, nil
}

// LoadQuel loads a QUEL script: create statements declare the relations,
// range declarations persist for the session, ALWAYS-tagged commands are
// translated into productions (the paper's triggers, §2.3), and the
// remaining DML statements execute in order — each running the triggers
// to quiescence. Additional OPS5 rule source may be supplied in opsRules
// (pass "" for none).
func LoadQuel(script, opsRules string, opts Options) (*System, error) {
	stmts := quel.SplitStatements(script)
	classes := map[string][]string{}
	var classOrder []string
	var dml []*quel.Stmt
	parsed := make([]*quel.Stmt, 0, len(stmts))
	for _, src := range stmts {
		st, err := quel.Parse(src)
		if err != nil {
			return nil, err
		}
		parsed = append(parsed, st)
		if st.Kind == quel.StmtCreate {
			if _, dup := classes[st.Class]; dup {
				return nil, fmt.Errorf("prodsys: relation %s created twice", st.Class)
			}
			classes[st.Class] = st.Attrs
			classOrder = append(classOrder, st.Class)
		}
	}
	tr := quel.NewTranslator(classes)
	var rulesSrc strings.Builder
	for _, cls := range classOrder {
		rulesSrc.WriteString("(literalize " + cls + " " + strings.Join(classes[cls], " ") + ")" + "\n")
	}
	if opsRules != "" {
		rulesSrc.WriteString(opsRules)
		rulesSrc.WriteString("\n")
	}
	for _, st := range parsed {
		switch {
		case st.Kind == quel.StmtCreate:
			// handled above
		case st.Kind == quel.StmtRange:
			if err := tr.DeclareRange(st.Var, st.Class); err != nil {
				return nil, err
			}
		case st.Always:
			prods, err := tr.TranslateAlways(st)
			if err != nil {
				return nil, err
			}
			for _, p := range prods {
				rulesSrc.WriteString(p)
			}
		default:
			dml = append(dml, st)
		}
	}
	sys, err := Load(rulesSrc.String(), opts)
	if err != nil {
		return nil, err
	}
	sys.quelIn = quel.NewInterp(sys.eng, tr)
	for _, st := range dml {
		res, err := sys.quelIn.ExecStmt(st)
		if err != nil {
			return nil, err
		}
		if st.Kind == quel.StmtRetrieve && sys.outWriter() != nil {
			printQuelRows(sys.outWriter(), res)
		}
	}
	return sys, nil
}

// outWriter exposes the configured write-action sink.
func (s *System) outWriter() io.Writer { return s.out }

// printQuelRows renders retrieve output.
func printQuelRows(w io.Writer, r *quel.Result) {
	fmt.Fprintln(w, strings.Join(r.Columns, "\t"))
	for _, row := range r.Rows {
		fmt.Fprintln(w, strings.Join(row, "\t"))
	}
}

// RegisterFunc makes a Go function callable from rule RHS actions via
// (call name arg ...). Arguments arrive rendered as strings (symbols and
// strings unquoted, numbers in their literal form).
func (s *System) RegisterFunc(name string, fn func(args []string) error) {
	s.eng.RegisterFunc(name, func(vals []value.V) error {
		args := make([]string, len(vals))
		for i, v := range vals {
			if v.Kind() == value.Str || v.Kind() == value.Sym {
				args[i] = v.AsString()
			} else {
				args[i] = v.String()
			}
		}
		return fn(args)
	})
}

// SaveWM writes the current working memory in the line-oriented dump
// format (tuple IDs included); the persistence of §3.2.
func (s *System) SaveWM(w io.Writer) error { return s.db.Dump(w) }

// SaveWMFile is SaveWM writing to a file. The dump lands atomically —
// written to a temp sibling, fsynced, then renamed into place — so a
// crash mid-save never leaves a truncated dump where a complete one
// (or nothing) used to be.
func (s *System) SaveWMFile(path string) error {
	return fsx.WriteAtomic(fsx.OS{}, path, s.db.Dump)
}

// RestoreWM loads a working-memory dump into this system, preserving
// tuple IDs, and replays the match maintenance so the conflict set
// reflects the restored contents. The whole dump is validated before
// anything is applied: on error the working memory is untouched. The
// system's WM should be empty and the dump must have been produced by a
// system with the same class declarations. With a WAL attached, the
// restored tuples are logged as one batch so they survive a restart.
func (s *System) RestoreWM(r io.Reader) error {
	restored, err := s.db.Restore(r)
	if err != nil {
		return err
	}
	for _, rt := range restored {
		if err := s.matcher.Insert(rt.Class, rt.ID, rt.Tuple); err != nil {
			return err
		}
	}
	return s.eng.LogRestored(restored)
}

// RestoreWMFile is RestoreWM reading from a file.
func (s *System) RestoreWMFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return s.RestoreWM(f)
}

// AttachViews defines materialized views (productions with empty RHS)
// over this system's working memory. The views are maintained
// incrementally through every Assert, Retract and rule firing.
func (s *System) AttachViews(src string) (*Views, error) {
	mgr, err := view.NewManager(src, s.db, s.stats)
	if err != nil {
		return nil, err
	}
	s.views = mgr
	s.eng.SetWMObserver(func(inserted bool, class string, id relation.TupleID, t relation.Tuple) {
		if inserted {
			mgr.Insert(class, id, t)
		} else {
			mgr.Delete(class, id, t)
		}
	})
	// Seed the views with the current WM contents.
	for _, name := range s.db.Names() {
		rel, err := s.db.Lookup(name)
		if err != nil {
			return nil, err
		}
		var ids []relation.TupleID
		var tups []relation.Tuple
		rel.Scan(func(id relation.TupleID, t relation.Tuple) bool {
			ids = append(ids, id)
			tups = append(tups, t.Clone())
			return true
		})
		for i := range ids {
			if err := mgr.Insert(name, ids[i], tups[i]); err != nil {
				return nil, err
			}
		}
	}
	return &Views{mgr: mgr}, nil
}

// Views is a set of maintained materialized views.
type Views struct {
	mgr *view.Manager
}

// Names lists the view names.
func (v *Views) Names() []string { return v.mgr.Names() }

// Rows returns the named view's rows ("col=val ... ×count"), sorted.
func (v *Views) Rows(name string) ([]string, error) {
	vw, ok := v.mgr.View(name)
	if !ok {
		return nil, fmt.Errorf("prodsys: unknown view %q", name)
	}
	return vw.Rows(), nil
}

// Len returns the named view's row count.
func (v *Views) Len(name string) (int, error) {
	vw, ok := v.mgr.View(name)
	if !ok {
		return 0, fmt.Errorf("prodsys: unknown view %q", name)
	}
	return vw.Len(), nil
}

// FormatStats renders selected counters for display.
func FormatStats(stats map[string]int64, prefixes ...string) string {
	var keys []string
	for k := range stats {
		if len(prefixes) == 0 {
			keys = append(keys, k)
			continue
		}
		for _, p := range prefixes {
			if strings.HasPrefix(k, p) {
				keys = append(keys, k)
				break
			}
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%-24s %d\n", k, stats[k])
	}
	return b.String()
}
