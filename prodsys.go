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
//     §2.2/§3.1), with beta-prefix sharing across rules (the
//     multiple-query optimization the paper names as future work, §6);
//   - MatcherRequery — the simplified algorithm: no intermediate storage,
//     joins re-evaluated per update (§4.1);
//   - MatcherCore — the paper's matching-pattern algorithm with per-RCE
//     supports (§4.2);
//   - MatcherMarker — POSTGRES-style Basic Locking rule indexing
//     (§2.3);
//   - MatcherPTree — Predicate Indexing through an R-tree over condition
//     rectangles (§2.3); the same index answers RulebaseQuery under every
//     matcher.
//
// Execution is either serial OPS5-style or concurrent: every applicable
// instantiation runs as a transaction that is validated, acts and
// commits after maintenance inside the engine's one non-interleavable
// section, per §5.
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
	"prodsys/internal/engine"
	"prodsys/internal/fsx"
	"prodsys/internal/joiner"
	"prodsys/internal/lang"
	"prodsys/internal/matchers"
	"prodsys/internal/metrics"
	"prodsys/internal/ptree"
	"prodsys/internal/quel"
	"prodsys/internal/relation"
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
	MatcherRete    Matcher = "rete"
	MatcherRequery Matcher = "requery"
	MatcherCore    Matcher = "core"
	MatcherMarker  Matcher = "marker"
	MatcherPTree   Matcher = "ptree"
)

// Matchers lists every available matcher kind.
func Matchers() []Matcher {
	names := matchers.Names()
	out := make([]Matcher, len(names))
	for i, n := range names {
		out[i] = Matcher(n)
	}
	return out
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

// Storage names the tuple storage layout serving working memory. There
// is one: the row store, a TupleID-keyed map with hash and ordered
// secondary indexes.
type Storage string

// StorageRow is the row store, the one storage layout.
const StorageRow Storage = "row"

// Storages lists the accepted Options.Storage values: [StorageRow].
func Storages() []Storage { return []Storage{StorageRow} }

// Sentinel errors; returned errors wrap these, test with errors.Is.
var (
	// ErrUnknownClass marks an operation naming an undeclared WM class.
	ErrUnknownClass = engine.ErrUnknownClass
	// ErrUnknownMatcher marks an Options.Matcher not in Matchers().
	ErrUnknownMatcher = matchers.ErrUnknown
	// ErrUnknownStrategy marks an Options.Strategy not in Strategies().
	ErrUnknownStrategy = errors.New("unknown strategy")
	// ErrUnknownStorage marks an Options.Storage not in Storages().
	ErrUnknownStorage = errors.New("unknown storage backend")
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
	// Seed seeds StrategyRandom, making its selections reproducible
	// run-to-run. Nothing else draws random numbers.
	Seed int64
	// Storage names the storage layout; "" and StorageRow are the only
	// accepted values (there is one layout).
	Storage Storage
	// Workers has no effect: RunConcurrent fires on the caller's goroutine.
	Workers int
	// MaxFirings caps rule firings (default 10000).
	MaxFirings int
	// Out receives the output of write actions; default os.Stdout. Use
	// io.Discard to silence.
	Out io.Writer
	// SetAtATime fires every eligible instantiation of the selected rule
	// per cycle (the set-oriented execution of §5.1).
	SetAtATime bool

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
	// Aborts counts transactions aborted in concurrent runs: stale or
	// already fired when their turn came, or panicked.
	Aborts int
	// Panics counts firings whose panic was contained: effects rolled
	// back, nothing committed to the WAL.
	Panics int
}

// System is a loaded production system.
type System struct {
	set     *rules.Set
	prog    *lang.Program
	db      *relation.DB
	stats   *metrics.Set
	eng     *engine.Engine // owns the matcher, which an audit's repair may replace
	quelIn  *quel.Interp
	out     io.Writer
	tracer  *trace.Tracer
	planner *joiner.Planner // LHS joins of the matchers and of QUEL statements

	matcherName string // the algorithm's name, fixed across repairs

	ruleIndex func() *ptree.Index // the condition R-tree RulebaseQuery probes, built on first use

	wal      *wal.Log      // non-nil while durability is active
	recovery *RecoveryInfo // what Load recovered; nil without a WAL

	replicaOf string // primary base URL while in replica mode ("" = primary)

	closeMu sync.Mutex // serializes Close against itself
	closed  bool       // Close has run; later calls return nil

	// aud keeps the sampled audit's cursor; guarded by the maintenance
	// lock, like the matcher it audits.
	aud *audit.Auditor

	views []*view.Manager // attached view sets; guarded by the maintenance lock
}

// Load parses, compiles and initializes a production system from OPS5
// subset source: literalize declarations, productions, and initial facts.
func Load(src string, opts Options) (*System, error) {
	prog, err := lang.Parse(src)
	if err != nil {
		return nil, err
	}
	return load(prog, opts)
}

// load compiles and initializes a system from a parsed program.
func load(prog *lang.Program, opts Options) (*System, error) {
	set, err := rules.Compile(prog)
	if err != nil {
		return nil, err
	}
	if opts.Storage != "" && opts.Storage != StorageRow {
		return nil, fmt.Errorf("prodsys: %w %q", ErrUnknownStorage, opts.Storage)
	}
	stats := &metrics.Set{}
	db := relation.NewDB(stats)
	if err := rules.BuildDB(set, db); err != nil {
		return nil, err
	}
	cs := conflict.NewSet(set, stats)
	tr := trace.New() // disabled until System.Trace; emit points are no-ops
	cs.SetTracer(tr)
	sys := &System{set: set, prog: prog, db: db, stats: stats, tracer: tr,
		planner:   joiner.NewPlanner(db, stats),
		aud:       audit.New(set, db, stats),
		ruleIndex: sync.OnceValue(func() *ptree.Index { return ptree.NewIndex(set, stats) })}
	name := opts.Matcher
	if name == "" {
		name = MatcherCore
	}
	m, err := matchers.New(string(name), set, db, cs, stats)
	if err != nil {
		return nil, fmt.Errorf("prodsys: %w", err)
	}
	m.SetTracer(tr)
	m.SetPlanner(sys.planner)
	sys.matcherName = m.Name()
	sys.aud.SetTracer(tr)
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
	sys.eng = engine.New(set, db, m, stats, engine.Config{
		Strategy:   strat,
		MaxFirings: opts.MaxFirings,
		Out:        out,
		SetAtATime: opts.SetAtATime,
		Tracer:     tr,
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

// RunConcurrent fires the conflict set in §5.2 rounds, each member a
// transaction validated inside the maintenance section, one after another
// on the caller's goroutine; a round shares one group fsync. It is a thin
// wrapper over RunConcurrentContext with a background context — the
// context-taking variant is the primary entry point.
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

// Commit applies the batch atomically with respect to other batches and
// rule firings: the WM changes apply in order, and match maintenance
// runs set-at-a-time — once per (class, direction) group — inside the
// engine's one maintenance section. The returned slice is aligned with the queued operations: the assigned
// tuple ID at assertion positions, zero at retractions. A batch commits
// at most once; further Commit calls (and further Assert/Retract) fail.
func (b *Batch) Commit() ([]uint64, error) {
	return b.CommitContext(context.Background())
}

// CommitContext is Commit honoring ctx: cancellation is observed before
// the batch enters the maintenance section; once inside, the batch
// applies in full.
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
func (s *System) MatcherName() string { return s.matcherName }

// RulebaseQuery answers "which rules have a condition on class whose
// restriction of attr intersects [lo, hi]" (§4.2.3; nil bound =
// unbounded), under every matcher.
func (s *System) RulebaseQuery(class, attr string, lo, hi any) ([]string, error) {
	loV, err := toValue(lo)
	if err != nil {
		return nil, err
	}
	hiV, err := toValue(hi)
	if err != nil {
		return nil, err
	}
	rs := s.ruleIndex().RulesInRange(class, attr, loV, hiV)
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
		s.quelIn = quel.NewInterp(s.eng, quel.NewTranslator(classes), s.set, s.planner)
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
	var lits []*lang.Literalize
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
			lits = append(lits, &lang.Literalize{Class: st.Class, Attrs: st.Attrs})
		}
	}
	prog, err := lang.Parse(opsRules)
	if err != nil {
		return nil, err
	}
	prog.Literalizes = append(lits, prog.Literalizes...)
	tr := quel.NewTranslator(classes)
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
			prog.Productions = append(prog.Productions, prods...)
		default:
			dml = append(dml, st)
		}
	}
	sys, err := load(prog, opts)
	if err != nil {
		return nil, err
	}
	sys.quelIn = quel.NewInterp(sys.eng, tr, sys.set, sys.planner)
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
// system with the same class declarations. Attached views see the
// restored tuples. With a WAL attached, the restored tuples are logged
// as one batch so they survive a restart.
func (s *System) RestoreWM(r io.Reader) error {
	restored, err := s.eng.Restore(r)
	if err != nil {
		return err
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
// incrementally through every Assert, Retract, rule firing and
// RestoreWM, alongside every set attached before. Each class src declares
// must match the system's declaration of it, attribute for attribute;
// otherwise AttachViews returns an error and attaches nothing. Attaching
// and seeding from the current WM happen inside the maintenance section,
// so a concurrent commit lands either before the seeding scan or through
// the observer, never both.
func (s *System) AttachViews(src string) (*Views, error) {
	mgr, err := view.NewManager(src, s.db, s.stats)
	if err != nil {
		return nil, err
	}
	s.eng.WithMaintenanceLock(func() {
		seed := relation.NewDelta()
		for _, name := range s.db.Names() {
			rel, ok := s.db.Get(name)
			if !ok {
				continue
			}
			rel.Scan(func(id relation.TupleID, t relation.Tuple) bool {
				seed.AddInsert(name, id, t.Clone())
				return true
			})
		}
		if err = mgr.Apply(seed); err != nil {
			return
		}
		if s.views == nil {
			s.eng.SetWMObserver(s.observeViews)
		}
		s.views = append(s.views, mgr)
	})
	if err != nil {
		return nil, err
	}
	return &Views{mgr: mgr}, nil
}

// observeViews feeds one write unit's net delta to every attached view
// set. It runs under the maintenance lock, which also guards s.views.
func (s *System) observeViews(d *relation.Delta) {
	for _, mgr := range s.views {
		mgr.Apply(d)
	}
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
