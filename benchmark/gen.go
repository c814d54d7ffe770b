package main

// Workload generators. Each takes only a seed (and the -scale factor that
// the smoke test uses to shrink state) and yields a deterministic stream of
// operations as plain data; the program under test sees nothing else. The
// OPS5 programs they drive live in programs/*.ops. gen_test.go pins a hash
// of every stream so the ruler's inputs cannot drift silently.

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
)

//go:embed programs/*.ops
var programFS embed.FS

// programSource returns the OPS5 source of programs/<name>.ops.
func programSource(name string) string {
	b, err := programFS.ReadFile("programs/" + name + ".ops")
	if err != nil {
		panic(err) // the file set is fixed at build time
	}
	return string(b)
}

// stripRules keeps only the literalize lines of a benchmark program — the
// "norules" peel loads the same relations with no production to maintain.
// The programs under programs/ put every form on one line, so a line filter
// is exact.
func stripRules(src string) string {
	var b strings.Builder
	for _, line := range strings.Split(src, "\n") {
		if strings.HasPrefix(line, "(literalize") {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// fact is one tuple to assert. seq numbers the facts of a stream in
// generation order, preload included; a retraction names the fact it
// removes and the runner maps its seq to the tuple id the system minted.
type fact struct {
	seq   int
	class string
	vals  []any
}

type opKind uint8

const (
	opCommit opKind = iota // one Batch.Commit of asserts and retracts
	opWave                 // Commit of new orders, then Run to quiescence
	opQuery                // one QUEL range retrieve over [lo, hi)
)

// op is one unit operation of a workload.
type op struct {
	kind     opKind
	asserts  []fact
	retracts []fact
	lo, hi   int
}

// generator is one workload's input stream.
type generator interface {
	// preload returns the commits that build the initial working memory.
	preload() []op
	// next returns the following unit operation; the stream is endless and
	// keeps working memory at its preload size.
	next() op
	// expectConflict is the conflict-set size the rules must produce for
	// the facts currently live, computed from the generator's own model of
	// the rules — the independent half of the output check.
	expectConflict() int
	// liveFacts is the working-memory size the stream implies between ops.
	// rules says whether the program's productions are loaded: jobshop's
	// retire rule removes what a wave asserts, the rule-free peel keeps it.
	liveFacts(rules bool) int
}

// fifo is the queue of live facts in assertion order; streams retract the
// oldest first so working-memory size stays constant.
type fifo struct {
	q    []fact
	head int
}

func (f *fifo) push(x fact) { f.q = append(f.q, x) }
func (f *fifo) len() int    { return len(f.q) - f.head }
func (f *fifo) live() []fact {
	return f.q[f.head:]
}
func (f *fifo) pop() fact {
	x := f.q[f.head]
	f.head++
	if f.head > 4096 && f.head*2 > len(f.q) {
		f.q = append(f.q[:0], f.q[f.head:]...)
		f.head = 0
	}
	return x
}

// preloadBatches builds n facts into commits of at most 500 asserts.
func preloadBatches(n int, next func() fact) []op {
	var ops []op
	for left := n; left > 0; {
		o := op{kind: opCommit}
		for i := min(left, 500); i > 0; i-- {
			o.asserts = append(o.asserts, next())
		}
		left -= len(o.asserts)
		ops = append(ops, o)
	}
	return ops
}

func scaled(n int, scale float64, min int) int {
	v := int(float64(n) * scale)
	if v < min {
		v = min
	}
	return v
}

// ---- payroll-stream ----

const (
	payrollRules     = 50
	payrollPreload   = 2000
	payrollPerCommit = 16  // asserts per commit, and as many retracts
	payrollDnos      = 100 // department-number domain
)

type payrollGen struct {
	r        *rand.Rand
	seq      int
	live     fifo
	nPreload int
}

func newPayrollGen(seed int64, scale float64) *payrollGen {
	return &payrollGen{r: rand.New(rand.NewSource(seed)), nPreload: scaled(payrollPreload, scale, 4*payrollPerCommit)}
}

// fact makes every eighth tuple a Dept, so 2 000 live tuples are 250
// departments and 1 750 employees: 2.5 departments per dno, half a
// department per (dno, floor), ≈ 21 k instantiations across the 50 rules.
func (g *payrollGen) fact() fact {
	f := fact{seq: g.seq}
	if g.seq%8 == 0 {
		f.class = "Dept"
		f.vals = []any{g.r.Intn(payrollDnos), fmt.Sprintf("dept%d", g.r.Intn(10)), g.r.Intn(5) + 1}
	} else {
		f.class = "Emp"
		f.vals = []any{fmt.Sprintf("e%d", g.seq), 20 + g.r.Intn(45), g.r.Intn(10000), g.r.Intn(payrollDnos)}
	}
	g.seq++
	g.live.push(f)
	return f
}

func (g *payrollGen) preload() []op { return preloadBatches(g.nPreload, g.fact) }

func (g *payrollGen) next() op {
	o := op{kind: opCommit}
	for i := 0; i < payrollPerCommit; i++ {
		o.retracts = append(o.retracts, g.live.pop())
	}
	for i := 0; i < payrollPerCommit; i++ {
		o.asserts = append(o.asserts, g.fact())
	}
	return o
}

func (g *payrollGen) liveFacts(bool) int { return g.live.len() }

// expectConflict mirrors programs/payroll.ops: rule i matches an Emp with
// salary > (i%20)*500 joined on dno to a Dept on floor i%5+1.
func (g *payrollGen) expectConflict() int {
	var depts [payrollDnos][6]int
	for _, f := range g.live.live() {
		if f.class == "Dept" {
			depts[f.vals[0].(int)][f.vals[2].(int)]++
		}
	}
	total := 0
	for _, f := range g.live.live() {
		if f.class != "Emp" {
			continue
		}
		salary, dno := f.vals[2].(int), f.vals[3].(int)
		for i := 0; i < payrollRules; i++ {
			if salary > (i%20)*500 {
				total += depts[dno][i%5+1]
			}
		}
	}
	return total
}

// ---- chain-bulk ----

const (
	chainLen         = 6
	chainPerWave     = 10
	chainDistractors = 9 // per chain, all in K5: the 10:1 cardinality skew
	chainPreload     = 20
)

// chainWave is what the model remembers of one live wave.
type chainWave struct {
	facts     []fact
	unflagged int // chains without a Flag: instantiations of rule unflagged
	span      int // K3 tuples inside the wave's Probe window: rule window
}

type chainGen struct {
	r        *rand.Rand
	seq      int
	wave     int
	live     []chainWave
	nPreload int
}

func newChainGen(seed int64, scale float64) *chainGen {
	return &chainGen{r: rand.New(rand.NewSource(seed)), nPreload: scaled(chainPreload, scale, 2)}
}

// makeWave builds chainPerWave complete chains (link i of chain g is
// Ki(8g+i, 8g+i+1)), nine K5 distractors per chain whose v is negative and
// so joins no K4, a Flag on about half the chains, and one Probe whose
// window covers 1–3 of the wave's K3 tuples; the facts are shuffled so
// insertion order carries no structure.
func (g *chainGen) makeWave() chainWave {
	var w chainWave
	var vals []fact
	first := g.wave * chainPerWave
	for c := 0; c < chainPerWave; c++ {
		base := (first + c) * 8
		for i := 0; i < chainLen; i++ {
			vals = append(vals, fact{class: fmt.Sprintf("K%d", i), vals: []any{base + i, base + i + 1}})
		}
		for d := 0; d < chainDistractors; d++ {
			vals = append(vals, fact{class: "K5", vals: []any{-1 - g.r.Intn(1<<30), g.r.Intn(1 << 30)}})
		}
		if g.r.Intn(2) == 0 {
			vals = append(vals, fact{class: "Flag", vals: []any{base + 2}})
		} else {
			w.unflagged++
		}
	}
	w.span = 1 + g.r.Intn(3)
	from := first + g.r.Intn(chainPerWave-w.span+1)
	vals = append(vals, fact{class: "Probe", vals: []any{from * 8, (from + w.span) * 8}})
	g.r.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	for i := range vals {
		vals[i].seq = g.seq
		g.seq++
	}
	w.facts = vals
	g.wave++
	g.live = append(g.live, w)
	return w
}

func (g *chainGen) preload() []op {
	var ops []op
	for i := 0; i < g.nPreload; i++ {
		ops = append(ops, op{kind: opCommit, asserts: g.makeWave().facts})
	}
	return ops
}

func (g *chainGen) next() op {
	old := g.live[0]
	g.live = append(g.live[:0], g.live[1:]...)
	return op{kind: opCommit, asserts: g.makeWave().facts, retracts: old.facts}
}

func (g *chainGen) liveFacts(bool) int {
	n := 0
	for _, w := range g.live {
		n += len(w.facts)
	}
	return n
}

// expectConflict mirrors programs/chain.ops: one chain instantiation per
// complete chain, one unflagged per chain without a Flag, one window per K3
// tuple inside a Probe.
func (g *chainGen) expectConflict() int {
	total := 0
	for _, w := range g.live {
		total += chainPerWave + w.unflagged + w.span
	}
	return total
}

// ---- jobshop-fire ----

const (
	jobshopParked   = 5000
	jobshopPerWave  = 50
	jobshopFirings  = 5 // per order: four stage rules and retire
	jobshopStations = 4
	jobshopIDStride = 1000
)

type jobshopGen struct {
	r       *rand.Rand
	seq     int
	nParked int
}

func newJobshopGen(seed int64, scale float64) *jobshopGen {
	return &jobshopGen{r: rand.New(rand.NewSource(seed)), nParked: scaled(jobshopParked, scale, jobshopPerWave)}
}

// order ids are unique (retire joins Log on id) but seed-dependent.
func (g *jobshopGen) order(stage string) fact {
	f := fact{seq: g.seq, class: "Order", vals: []any{g.seq*jobshopIDStride + g.r.Intn(jobshopIDStride), stage}}
	g.seq++
	return f
}

func (g *jobshopGen) preload() []op {
	first := op{kind: opCommit}
	for _, name := range []string{"cutter", "drill", "polisher", "packer"} {
		first.asserts = append(first.asserts, fact{seq: g.seq, class: "Station", vals: []any{name, "yes"}})
		g.seq++
	}
	return append([]op{first}, preloadBatches(g.nParked, func() fact { return g.order("parked") })...)
}

func (g *jobshopGen) next() op {
	o := op{kind: opWave}
	for i := 0; i < jobshopPerWave; i++ {
		o.asserts = append(o.asserts, g.order("new"))
	}
	return o
}

// Every wave runs to quiescence and retires its orders, so between ops the
// conflict set is empty and only stations and parked orders are live.
func (g *jobshopGen) expectConflict() int { return 0 }
func (g *jobshopGen) liveFacts(rules bool) int {
	if rules {
		return jobshopStations + g.nParked
	}
	return g.seq
}

// ---- serve-mixed ----

const (
	// QUEL retrieves scan the whole relation, so its size sets the cost of the
	// read share; 1 000 items keep server + WAL the larger part of a request.
	servePreload  = 1000
	serveQtyRange = 1000 // qty uniform in [0, serveQtyRange): ≈ 1 live item per value
	serveWindow   = 10   // a query spans this many qty values: ≈ 10 rows
	serveDrift    = 4    // a client's live items stay within this of its preload
)

// serveGen is one closed-loop client's stream: 40 % single asserts, 40 %
// retracts of its own oldest acked item, 20 % range retrieves. Client c of n
// owns the item ids congruent to c mod n, so streams never collide.
type serveGen struct {
	r        *rand.Rand
	client   int
	clients  int
	seq      int
	live     fifo
	nPreload int
}

func newServeGen(seed int64, scale float64, client, clients int) *serveGen {
	total := scaled(servePreload, scale, 40)
	return &serveGen{
		r:        rand.New(rand.NewSource(seed*7919 + int64(client))),
		client:   client,
		clients:  clients,
		nPreload: total / clients,
	}
}

func (g *serveGen) item() fact {
	f := fact{seq: g.seq, class: "Item", vals: []any{g.seq*g.clients + g.client, g.r.Intn(serveQtyRange)}}
	g.seq++
	g.live.push(f)
	return f
}

func (g *serveGen) preload() []op { return preloadBatches(g.nPreload, g.item) }

// next draws 40 % asserts, 40 % retracts, 20 % retrieves. The client's live
// items are kept within serveDrift of its preload, so the relation a
// retrieve scans stays the same size however long the run is.
func (g *serveGen) next() op {
	p := g.r.Intn(10)
	if p >= 8 {
		lo := g.r.Intn(serveQtyRange - serveWindow)
		return op{kind: opQuery, lo: lo, hi: lo + serveWindow}
	}
	if drift := g.live.len() - g.nPreload; drift <= -serveDrift || (p < 4 && drift < serveDrift) {
		return op{kind: opCommit, asserts: []fact{g.item()}}
	}
	return op{kind: opCommit, retracts: []fact{g.live.pop()}}
}

// The hot rule never matches (qty stays far below its threshold).
func (g *serveGen) expectConflict() int { return 0 }
func (g *serveGen) liveFacts(bool) int  { return g.live.len() }

// ownInWindow counts this client's live items with lo <= qty < hi: every
// retrieve must return at least these rows.
func (g *serveGen) ownInWindow(lo, hi int) int {
	n := 0
	for _, f := range g.live.live() {
		if q := f.vals[1].(int); q >= lo && q < hi {
			n++
		}
	}
	return n
}

// quelRange is the retrieve statement of an opQuery.
func quelRange(lo, hi int) string {
	return fmt.Sprintf("retrieve (Item.id, Item.qty) where Item.qty >= %d and Item.qty < %d", lo, hi)
}

// ---- workload table ----

type workload struct {
	name    string
	program string // programs/<program>.ops
	newGen  func(seed int64, scale float64) generator
	// tracedOps is the fixed length of the traced replay prefix at scale 1;
	// sweepOps that of the alternatives sweep (0 = no sweep).
	tracedOps int
	sweepOps  int
	// rssOps is the op of the measured phase after which peak RSS is read
	// (about 60 % of what this commit completes in 15 s). Memory grows with
	// the ops completed — by 45 KB per wave on jobshop-fire — so reading it
	// at the end of a timed window would charge a faster program for the
	// extra ops it completes.
	rssOps int
}

var workloads = []workload{
	{name: "payroll-stream", program: "payroll", tracedOps: 300, sweepOps: 60, rssOps: 1200,
		newGen: func(s int64, sc float64) generator { return newPayrollGen(s, sc) }},
	{name: "chain-bulk", program: "chain", tracedOps: 150, sweepOps: 30, rssOps: 1200,
		newGen: func(s int64, sc float64) generator { return newChainGen(s, sc) }},
	{name: "jobshop-fire", program: "jobshop", tracedOps: 150, rssOps: 1000,
		newGen: func(s int64, sc float64) generator { return newJobshopGen(s, sc) }},
	{name: "serve-mixed", program: "serve", tracedOps: 4000, rssOps: 40000,
		newGen: func(s int64, sc float64) generator { return newServeGen(s, sc, 0, 1) }},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// streamHash is the SHA-256 of a workload's preload plus its first n ops,
// rendered as text.
func streamHash(g generator, n int) string {
	h := sha256.New()
	write := func(o op) {
		fmt.Fprintf(h, "op %d %d %d\n", o.kind, o.lo, o.hi)
		for _, f := range o.asserts {
			fmt.Fprintf(h, "+ %d %s %v\n", f.seq, f.class, f.vals)
		}
		for _, f := range o.retracts {
			fmt.Fprintf(h, "- %d %s\n", f.seq, f.class)
		}
	}
	for _, o := range g.preload() {
		write(o)
	}
	for i := 0; i < n; i++ {
		write(g.next())
	}
	return hex.EncodeToString(h.Sum(nil))
}
