// Package rete implements the classic main-memory Rete match algorithm
// (Forgy 1982) used by OPS5 — the paper's AI-way baseline (§2.2, §3.1).
//
// Rule LHSs compile into a discrimination network: one-input (alpha)
// chains check variable-free restrictions and feed alpha memories;
// two-input (beta) join nodes pair tokens from the left with working
// memory elements from the right, storing partial matches at every level.
// Negated condition elements become negative nodes carrying join-result
// counts. Tokens reaching the bottom of the network add instantiations to
// the conflict set.
//
// The implementation follows Doorenbos' formulation with tree-based token
// removal. Alpha memories are shared between condition elements with the
// same class and variable-free tests (the sharing visible in Figure 3 of
// the paper), and so are the beta chains of rules with a common prefix of
// condition elements, as in OPS5's own Rete. The unshared compile, one
// beta chain per rule, survives only as the baseline of experiment E12
// (NewUnshared).
package rete

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"prodsys/internal/conflict"
	"prodsys/internal/joiner"
	"prodsys/internal/metrics"
	"prodsys/internal/relation"
	"prodsys/internal/rules"
	"prodsys/internal/trace"
	"prodsys/internal/value"
)

// WME is a working memory element flowing through the network.
type WME struct {
	Class string
	ID    relation.TupleID
	Tuple relation.Tuple

	amems  []*alphaMemory
	tokens []*token // tokens whose own wme is this element
	negJRs []*negJoinResult
}

func (w *WME) String() string {
	return fmt.Sprintf("%s:%d%s", w.Class, w.ID, w.Tuple)
}

// token is a partial match: a chain of one entry per condition element
// processed so far. wme is nil for negated condition elements and for the
// dummy top token.
type token struct {
	parent   *token
	wme      *WME
	owner    tokenOwner
	level    int // CE index this token completes; -1 for the dummy token
	children []*token
	// joinResults is non-empty only while owned by a negative node: the
	// working memory elements currently blocking this token.
	joinResults []*negJoinResult
}

// negJoinResult links a blocked negative-node token with the WME blocking
// it.
type negJoinResult struct {
	owner *token
	wme   *WME
}

// tokenOwner is any node that stores tokens (beta memory, negative node,
// production node).
type tokenOwner interface {
	removeToken(t *token)
}

// tokenSink receives a token that has satisfied everything up to and
// including the owner node's condition element.
type tokenSink interface {
	tokenAdded(t *token)
}

// tokenStore is a node storing tokens a join can iterate (beta memory
// or negative node); allTokens additionally lists blocked tokens, for
// DumpDerived.
type tokenStore interface {
	eachToken(func(*token))
	allTokens() []*token
}

// joinTest compares an attribute of the candidate WME with an attribute
// of an earlier condition element's WME inside the token.
type joinTest struct {
	wmePos   int
	tokLevel int
	tokPos   int
	op       value.Op
}

// intraTest compares two attributes of the same WME (a variable used
// twice within one condition element).
type intraTest struct {
	p1, p2 int
	op     value.Op
}

// alphaMemory stores the WMEs passing one variable-free test chain.
type alphaMemory struct {
	signature  string
	class      string
	consts     []relation.Restriction
	disj       []rules.DisjTest
	intra      []intraTest
	set        []int // binding positions: a field left unset cannot bind
	items      map[*WME]struct{}
	successors []amemSuccessor // kept sorted by descending CE index
}

// amemSuccessor is a node right-activated by alpha memory insertions,
// a batch of WMEs at a time. Removals need no right retraction: token
// trees are torn down from the WME's own token list (DeleteBatch).
type amemSuccessor interface {
	rightActivateBatch(ws []*WME)
	ceIndex() int
	// ownerRules attributes the node to the rules whose compilation
	// reached it: one rule normally, several under beta-prefix sharing
	// (traced join work is split evenly between them).
	ownerRules() []*rules.Rule
	addOwner(r *rules.Rule)
}

// matches reports whether the WME passes this alpha memory's tests.
func (am *alphaMemory) matches(w *WME) bool {
	if w.Class != am.class || !relation.SatisfiesAll(w.Tuple, am.consts) {
		return false
	}
	for _, d := range am.disj {
		if !d.Satisfies(w.Tuple) {
			return false
		}
	}
	for _, it := range am.intra {
		if !it.op.Apply(w.Tuple[it.p1], w.Tuple[it.p2]) {
			return false
		}
	}
	for _, p := range am.set {
		if w.Tuple[p].IsNil() {
			return false
		}
	}
	return true
}

// betaMemory stores tokens and feeds child join nodes.
type betaMemory struct {
	items    map[*token]struct{}
	children []tokenSink
	net      *Network
}

func newBetaMemory(net *Network) *betaMemory {
	return &betaMemory{items: make(map[*token]struct{}), net: net}
}

func (bm *betaMemory) leftActivate(parent *token, w *WME, level int) {
	t := bm.net.newToken(parent, w, bm, level)
	bm.items[t] = struct{}{}
	for _, c := range bm.children {
		c.tokenAdded(t)
	}
}

func (bm *betaMemory) removeToken(t *token) { delete(bm.items, t) }

// allTokens returns every stored token (for DumpDerived; at a negative
// node this includes blocked tokens, which eachToken hides).
func (bm *betaMemory) allTokens() []*token {
	out := make([]*token, 0, len(bm.items))
	for t := range bm.items {
		out = append(out, t)
	}
	return out
}

// joinNode pairs parent-store tokens with alpha memory WMEs.
type joinNode struct {
	net    *Network
	parent interface {
		eachToken(func(*token))
	}
	amem  *alphaMemory
	tests []joinTest
	child interface {
		leftActivate(parent *token, w *WME, level int)
	}
	ce     int           // condition element index
	owners []*rules.Rule // compiling rules, for trace attribution
}

func (j *joinNode) ceIndex() int              { return j.ce }
func (j *joinNode) ownerRules() []*rules.Rule { return j.owners }
func (j *joinNode) addOwner(r *rules.Rule)    { j.owners = append(j.owners, r) }

func (j *joinNode) performTests(t *token, w *WME) bool {
	j.net.stats.Inc(metrics.NodeActivations)
	for _, jt := range j.tests {
		tw := t.wmeAtLevel(jt.tokLevel)
		if tw == nil || !jt.op.Apply(w.Tuple[jt.wmePos], tw.Tuple[jt.tokPos]) {
			return false
		}
	}
	return true
}

// tokenAdded is the left activation: a new token appeared in the parent
// store.
func (j *joinNode) tokenAdded(t *token) {
	for w := range j.amem.items {
		if j.performTests(t, w) {
			j.child.leftActivate(t, w, j.ce)
		}
	}
}

// eachToken lets join nodes iterate a beta memory.
func (bm *betaMemory) eachToken(f func(*token)) {
	for t := range bm.items {
		f(t)
	}
}

// negativeNode implements a negated condition element: it stores tokens
// (acting as a beta memory) and blocks any token with at least one
// matching WME in its alpha memory.
type negativeNode struct {
	net      *Network
	amem     *alphaMemory
	tests    []joinTest
	items    map[*token]struct{}
	children []tokenSink
	ce       int
	owners   []*rules.Rule // compiling rules, for trace attribution
}

func newNegativeNode(net *Network, amem *alphaMemory, tests []joinTest, ce int, r *rules.Rule) *negativeNode {
	return &negativeNode{net: net, amem: amem, tests: tests, items: make(map[*token]struct{}), ce: ce, owners: []*rules.Rule{r}}
}

func (n *negativeNode) ceIndex() int              { return n.ce }
func (n *negativeNode) ownerRules() []*rules.Rule { return n.owners }
func (n *negativeNode) addOwner(r *rules.Rule)    { n.owners = append(n.owners, r) }

func (n *negativeNode) performTests(t *token, w *WME) bool {
	n.net.stats.Inc(metrics.NodeActivations)
	for _, jt := range n.tests {
		tw := t.wmeAtLevel(jt.tokLevel)
		if tw == nil || !jt.op.Apply(w.Tuple[jt.wmePos], tw.Tuple[jt.tokPos]) {
			return false
		}
	}
	return true
}

// leftActivate receives a new partial match from above.
func (n *negativeNode) leftActivate(parent *token, w *WME, _ int) {
	t := n.net.newToken(parent, w, n, n.ce)
	n.items[t] = struct{}{}
	for cand := range n.amem.items {
		if n.performTests(t, cand) {
			jr := &negJoinResult{owner: t, wme: cand}
			t.joinResults = append(t.joinResults, jr)
			cand.negJRs = append(cand.negJRs, jr)
		}
	}
	if len(t.joinResults) == 0 {
		for _, c := range n.children {
			c.tokenAdded(t)
		}
	}
}

// tokenAdded adapts a preceding negative node (or other token store)
// feeding this one directly (consecutive negated condition elements).
func (n *negativeNode) tokenAdded(t *token) { n.leftActivate(t, nil, n.ce) }

func (n *negativeNode) removeToken(t *token) { delete(n.items, t) }

func (n *negativeNode) eachToken(f func(*token)) {
	for t := range n.items {
		if len(t.joinResults) == 0 {
			f(t)
		}
	}
}

func (n *negativeNode) allTokens() []*token {
	out := make([]*token, 0, len(n.items))
	for t := range n.items {
		out = append(out, t)
	}
	return out
}

// pnode is a production node: complete matches become conflict-set
// instantiations.
type pnode struct {
	net   *Network
	rule  *rules.Rule
	items map[*token]struct{}
}

func newPNode(net *Network, r *rules.Rule) *pnode {
	return &pnode{net: net, rule: r, items: make(map[*token]struct{})}
}

func (p *pnode) leftActivate(parent *token, w *WME, level int) {
	t := p.net.newToken(parent, w, p, level)
	p.items[t] = struct{}{}
	p.net.addInstantiation(p.rule, t)
}

func (p *pnode) tokenAdded(t *token) { p.leftActivate(t, nil, t.level) }

func (p *pnode) removeToken(t *token) {
	delete(p.items, t)
	p.net.removeInstantiation(p.rule, t)
}

func (p *pnode) allTokens() []*token {
	out := make([]*token, 0, len(p.items))
	for t := range p.items {
		out = append(out, t)
	}
	return out
}

// wmeAtLevel walks the token chain to the entry for the given condition
// element index.
func (t *token) wmeAtLevel(level int) *WME {
	for cur := t; cur != nil; cur = cur.parent {
		if cur.level == level {
			return cur.wme
		}
	}
	return nil
}

type wmeKey struct {
	class string
	id    relation.TupleID
}

// Network is the compiled Rete network for a rule set.
type Network struct {
	set   *rules.Set
	cs    *conflict.Set
	stats *metrics.Set
	tr    *trace.Tracer

	alphaByClass map[string][]*alphaMemory
	alphaBySig   map[string]*alphaMemory
	dummyTop     *token
	top          *betaMemory
	wmes         map[wmeKey]*WME
	pnodes       []*pnode
	ruleChains   []*ruleChain

	// share enables beta-prefix sharing across rules (the multiple-query
	// optimization of §6: common subchains compiled once; off only in the
	// NewUnshared baseline); chains caches the store reached after each
	// distinct condition-element prefix.
	share  bool
	chains map[string]*chainStep
}

// chainStep records the token store reached after compiling one prefix of
// condition elements, so another rule with the same prefix can reuse it.
type chainStep struct {
	store  tokenStore
	attach func(tokenSink)
	node   amemSuccessor // the step's join/negative node, for owner attribution
}

// ruleChain records, per rule, the token store reached after each
// condition element plus the production node — the derived state
// DumpDerived lists per rule. Under beta-prefix sharing the stores may
// be shared with other rules' chains.
type ruleChain struct {
	rule   *rules.Rule
	stores []tokenStore // aligned with rule.CEs
	pn     *pnode
}

// New compiles the rule set into a Rete network maintaining cs, with
// beta-prefix sharing: rules with a common prefix of condition elements
// (same classes, variable-free tests and join tests) share the two-input
// nodes and memories of that prefix. This is also the multiple-query
// optimization the paper names as future work (§3.2/§6: "it would be
// advantageous to build a global compiled plan that avoids multiple
// relation accesses", citing [SELL86, SELL88]). stats may be nil.
func New(set *rules.Set, cs *conflict.Set, stats *metrics.Set) *Network {
	return compileNetwork(set, cs, stats, true)
}

// NewUnshared compiles one beta chain per rule, sharing only alpha
// memories — the baseline experiment E12 measures New against. It is not
// a product matcher.
func NewUnshared(set *rules.Set, cs *conflict.Set, stats *metrics.Set) *Network {
	return compileNetwork(set, cs, stats, false)
}

func compileNetwork(set *rules.Set, cs *conflict.Set, stats *metrics.Set, share bool) *Network {
	net := &Network{
		set:          set,
		cs:           cs,
		stats:        stats,
		alphaByClass: make(map[string][]*alphaMemory),
		alphaBySig:   make(map[string]*alphaMemory),
		wmes:         make(map[wmeKey]*WME),
		share:        share,
		chains:       make(map[string]*chainStep),
	}
	net.dummyTop = &token{level: -1}
	net.top = newBetaMemory(net)
	net.top.items[net.dummyTop] = struct{}{}
	for _, r := range set.Rules {
		net.compileRule(r)
	}
	return net
}

// SetTracer implements match.Matcher: alpha-chain checks and join-node
// right activations are emitted as trace events.
func (net *Network) SetTracer(tr *trace.Tracer) { net.tr = tr }

// SetPlanner implements match.Matcher. The network joins incrementally
// through its own memories and never calls the joiner, so there is
// nothing to plan.
func (net *Network) SetPlanner(*joiner.Planner) {}

// Name implements match.Matcher.
func (net *Network) Name() string {
	if !net.share {
		return "rete-unshared"
	}
	return "rete"
}

// ConflictSet implements match.Matcher.
func (net *Network) ConflictSet() *conflict.Set { return net.cs }

// newToken allocates a token and links it under its parent.
func (net *Network) newToken(parent *token, w *WME, owner tokenOwner, level int) *token {
	t := &token{parent: parent, wme: w, owner: owner, level: level}
	if parent != nil {
		parent.children = append(parent.children, t)
	}
	if w != nil {
		w.tokens = append(w.tokens, t)
	}
	net.stats.Inc(metrics.TokensStored)
	return t
}

// alphaSignature canonically names a CE's variable-free test chain.
func alphaSignature(class string, consts []relation.Restriction, disj []rules.DisjTest, intra []intraTest, set []int) string {
	parts := make([]string, 0, len(consts)+len(disj)+len(intra)+len(set))
	for _, c := range consts {
		parts = append(parts, fmt.Sprintf("c%d%s%s", c.Pos, c.Op, c.Val.Key()))
	}
	for _, d := range disj {
		vals := make([]string, len(d.Vals))
		for i, v := range d.Vals {
			vals[i] = v.Key().String()
		}
		sort.Strings(vals)
		parts = append(parts, fmt.Sprintf("d%d∈{%s}", d.Pos, strings.Join(vals, ",")))
	}
	for _, it := range intra {
		parts = append(parts, fmt.Sprintf("i%d%s%d", it.p1, it.op, it.p2))
	}
	for _, p := range set {
		parts = append(parts, fmt.Sprintf("s%d", p))
	}
	sort.Strings(parts)
	return class + "§" + strings.Join(parts, "|")
}

// buildAlpha returns (sharing when possible) the alpha memory for a CE.
func (net *Network) buildAlpha(ce *rules.CE, intra []intraTest, set []int) *alphaMemory {
	sig := alphaSignature(ce.Class, ce.Consts, ce.Disj, intra, set)
	if am, ok := net.alphaBySig[sig]; ok {
		return am
	}
	am := &alphaMemory{
		signature: sig,
		class:     ce.Class,
		consts:    append([]relation.Restriction(nil), ce.Consts...),
		disj:      append([]rules.DisjTest(nil), ce.Disj...),
		intra:     intra,
		set:       set,
		items:     make(map[*WME]struct{}),
	}
	net.alphaBySig[sig] = am
	net.alphaByClass[ce.Class] = append(net.alphaByClass[ce.Class], am)
	return am
}

// addSuccessor registers a join-like node on an alpha memory, keeping
// successors sorted by descending CE index so that right activations of
// deeper nodes precede shallower ones (avoiding duplicate matches when a
// single WME feeds several levels of one rule).
func (am *alphaMemory) addSuccessor(s amemSuccessor) {
	am.successors = append(am.successors, s)
	sort.SliceStable(am.successors, func(i, j int) bool {
		return am.successors[i].ceIndex() > am.successors[j].ceIndex()
	})
}

// compileRule builds (or, with sharing, reuses) the beta chain for one
// rule and hangs the rule's production node off its end.
func (net *Network) compileRule(r *rules.Rule) {
	// binder maps each variable to its binding CE level and position.
	type binder struct{ level, pos int }
	binders := map[string]binder{}

	// current token store feeding the next join, and the adapter to
	// attach a child. Attaching a sink replays the store's current tokens
	// so that nodes wired after tokens exist (the dummy top token, or
	// tokens created while compiling a chain of negated condition
	// elements) see them.
	var curStore tokenStore
	var attach func(child tokenSink)

	top := net.top
	curStore = top
	attach = func(c tokenSink) {
		top.children = append(top.children, c)
		c.tokenAdded(net.dummyTop)
	}

	// chainStores records the store reached after each CE, for
	// DumpDerived.
	chainStores := make([]tokenStore, 0, len(r.CEs))

	prefixSig := "⊤"
	for i, ce := range r.CEs {
		// Split this CE's variable tests into intra-CE tests (variable
		// bound within the same CE) and join tests against earlier CEs.
		var intra []intraTest
		var jtests []joinTest
		var set []int
		local := map[string]int{}
		for _, vt := range ce.VarTests {
			if b, ok := binders[vt.Var]; ok {
				jtests = append(jtests, joinTest{wmePos: vt.Pos, tokLevel: b.level, tokPos: b.pos, op: vt.Op})
				continue
			}
			if p, ok := local[vt.Var]; ok {
				intra = append(intra, intraTest{p1: vt.Pos, p2: p, op: vt.Op})
				continue
			}
			// Binding occurrence within this CE.
			local[vt.Var] = vt.Pos
			set = append(set, vt.Pos)
		}
		am := net.buildAlpha(ce, intra, set)

		// The prefix signature names everything that determines this
		// step's behaviour: the alpha chain, the join tests (positional,
		// so variable spelling does not matter), and negation.
		prefixSig = fmt.Sprintf("%s→%s%v¬%v", prefixSig, am.signature, jtests, ce.Negated)
		if net.share {
			if cached, ok := net.chains[prefixSig]; ok {
				cached.node.addOwner(r)
				curStore = cached.store
				attach = cached.attach
				chainStores = append(chainStores, curStore)
				for v, p := range local {
					binders[v] = binder{level: i, pos: p}
				}
				continue
			}
		}

		if ce.Negated {
			neg := newNegativeNode(net, am, jtests, i, r)
			// Wire: the previous store's join... a negated CE needs no
			// separate join node; the negative node consumes tokens from
			// the previous node directly.
			attach(neg)
			am.addSuccessor(neg)
			curStore = neg
			attach = func(c tokenSink) {
				neg.children = append(neg.children, c)
				neg.eachToken(c.tokenAdded)
			}
			if net.share {
				net.chains[prefixSig] = &chainStep{store: curStore, attach: attach, node: neg}
			}
			chainStores = append(chainStores, curStore)
			continue
		}

		// Positive CE: join node between current store and the alpha
		// memory, feeding a fresh beta memory.
		j := &joinNode{net: net, parent: curStore, amem: am, tests: jtests, ce: i, owners: []*rules.Rule{r}}
		attach(j)
		am.addSuccessor(j)
		bm := newBetaMemory(net)
		j.child = bm
		curStore = bm
		attach = func(c tokenSink) {
			bm.children = append(bm.children, c)
			bm.eachToken(c.tokenAdded)
		}
		if net.share {
			net.chains[prefixSig] = &chainStep{store: curStore, attach: attach, node: j}
		}
		chainStores = append(chainStores, curStore)
		// Record binders for variables first bound here.
		for v, p := range local {
			binders[v] = binder{level: i, pos: p}
		}
	}
	// The production node hangs off the chain's final store.
	pn := newPNode(net, r)
	attach(pn)
	net.pnodes = append(net.pnodes, pn)
	net.ruleChains = append(net.ruleChains, &ruleChain{rule: r, stores: chainStores, pn: pn})
}

// emitJoinEval attributes one right activation's duration to the
// node's owner rules, split evenly — under beta-prefix sharing the
// join work is genuinely shared between them.
func (net *Network) emitJoinEval(s amemSuccessor, at, dur time.Duration, class string, count int64) {
	owners := s.ownerRules()
	if len(owners) == 0 {
		return
	}
	share := dur / time.Duration(len(owners))
	for _, r := range owners {
		net.tr.Emit(trace.Event{
			Kind: trace.KindJoinEval, At: at, Dur: share,
			Rule: r.Name, CE: s.ceIndex(), Class: class, Count: count,
		})
	}
}

func removeJR(list []*negJoinResult, jr *negJoinResult) []*negJoinResult {
	for i, x := range list {
		if x == jr {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}

// deleteDescendants removes the children of t (used when a negative node
// token becomes blocked: the token itself stays).
func (net *Network) deleteDescendants(t *token) {
	for len(t.children) > 0 {
		net.deleteTokenTree(t.children[len(t.children)-1])
	}
}

// deleteTokenTree removes a token and everything derived from it.
func (net *Network) deleteTokenTree(t *token) {
	net.deleteDescendants(t)
	t.owner.removeToken(t)
	net.stats.Inc(metrics.TokensDeleted)
	if t.parent != nil {
		t.parent.children = removeTok(t.parent.children, t)
	}
	if t.wme != nil {
		t.wme.tokens = removeTok(t.wme.tokens, t)
	}
	for _, jr := range t.joinResults {
		jr.wme.negJRs = removeJR(jr.wme.negJRs, jr)
	}
	t.joinResults = nil
}

func removeTok(list []*token, t *token) []*token {
	for i, x := range list {
		if x == t {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}

// addInstantiation converts a complete token into a conflict-set entry,
// gathering its IDs and tuples on the stack for rules of up to
// maxStackCEs condition elements.
func (net *Network) addInstantiation(r *rules.Rule, t *token) {
	n := len(r.CEs)
	var idBuf [maxStackCEs]relation.TupleID
	var tupBuf [maxStackCEs]relation.Tuple
	ids, tuples := idBuf[:min(n, maxStackCEs)], tupBuf[:min(n, maxStackCEs)]
	if n > maxStackCEs {
		ids, tuples = make([]relation.TupleID, n), make([]relation.Tuple, n)
	}
	for cur := t; cur != nil; cur = cur.parent {
		if cur.level >= 0 && cur.wme != nil {
			ids[cur.level] = cur.wme.ID
			tuples[cur.level] = cur.wme.Tuple
		}
	}
	net.cs.Add(conflict.NewInstantiation(r, ids, tuples))
}

// removeInstantiation retracts the conflict-set entry for a dying token.
func (net *Network) removeInstantiation(r *rules.Rule, t *token) {
	n := len(r.CEs)
	var idBuf [maxStackCEs]relation.TupleID
	ids := idBuf[:min(n, maxStackCEs)]
	if n > maxStackCEs {
		ids = make([]relation.TupleID, n)
	}
	for cur := t; cur != nil; cur = cur.parent {
		if cur.level >= 0 && cur.wme != nil {
			ids[cur.level] = cur.wme.ID
		}
	}
	net.cs.Remove(conflict.MakeKey(r.Index, ids))
}

// maxStackCEs is the most condition elements whose IDs addInstantiation
// and removeInstantiation gather without allocating.
const maxStackCEs = 8

// DumpDerived implements match.Matcher. With only nil it lists every
// alpha-memory entry, under no rule: alpha memories are shared across
// rules. Then, per rule, it lists each token of the store its chain
// reaches after each condition element, and of its production node, by
// level and the WM IDs at the token's positive levels; a negative-node
// token names how many WMEs block it. A store shared under beta-prefix
// sharing is listed under every rule whose chain reaches it, so New and
// NewUnshared list the same lines.
func (net *Network) DumpDerived(only map[string]bool, emit func(rule, line string)) {
	if only == nil {
		for sig, am := range net.alphaBySig {
			for w := range am.items {
				emit("", fmt.Sprintf("alpha %s id=%d", sig, w.ID))
			}
		}
	}
	for _, ch := range net.ruleChains {
		rule := ch.rule.Name
		if only != nil && !only[rule] {
			continue
		}
		for i, st := range ch.stores {
			level := "ce" + strconv.Itoa(i) + " "
			for _, t := range st.allTokens() {
				line := level + tokenSignature(t)
				if n := len(t.joinResults); n > 0 {
					line += " blocked×" + strconv.Itoa(n)
				}
				emit(rule, line)
			}
		}
		for _, t := range ch.pn.allTokens() {
			emit(rule, "pn "+tokenSignature(t))
		}
	}
}

// tokenSignature renders the positive WM IDs of a token's chain as
// "level:id|…", ascending by level — the canonical name of the partial
// match the token represents. A chain's levels fall strictly from a
// token to its parents.
func tokenSignature(t *token) string {
	var buf [8]*token
	chain := buf[:0]
	for cur := t; cur != nil; cur = cur.parent {
		if cur.level >= 0 && cur.wme != nil {
			chain = append(chain, cur)
		}
	}
	b := make([]byte, 0, 12*len(chain))
	for i := len(chain) - 1; i >= 0; i-- {
		if i < len(chain)-1 {
			b = append(b, '|')
		}
		b = strconv.AppendInt(b, int64(chain[i].level), 10)
		b = append(b, ':')
		b = strconv.AppendUint(b, uint64(chain[i].wme.ID), 10)
	}
	return string(b)
}

// TokenCount reports the number of stored tokens across beta memories,
// negative nodes and production nodes — the redundant storage the paper
// attributes to the Rete network (§2.2).
func (net *Network) TokenCount() int {
	n := 0
	seen := map[*betaMemory]bool{}
	var walk func(s tokenSink)
	walk = func(s tokenSink) {
		switch x := s.(type) {
		case *joinNode:
			switch c := x.child.(type) {
			case *betaMemory:
				if !seen[c] {
					seen[c] = true
					n += len(c.items)
					for _, ch := range c.children {
						walk(ch)
					}
				}
			case *negativeNode:
				n += len(c.items)
				for _, ch := range c.children {
					walk(ch)
				}
			case *pnode:
				n += len(c.items)
			}
		case *negativeNode:
			n += len(x.items)
			for _, ch := range x.children {
				walk(ch)
			}
		case *pnode:
			n += len(x.items)
		}
	}
	for _, ams := range net.alphaByClass {
		for _, am := range ams {
			n += len(am.items)
			for _, s := range am.successors {
				if ts, ok := s.(tokenSink); ok {
					walk(ts)
				}
			}
		}
	}
	return n
}
