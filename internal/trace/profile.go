package trace

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// ruleAgg accumulates per-rule costs at emit time, so profiles stay
// exact even after the event ring has wrapped.
type ruleAgg struct {
	matchTime     time.Duration
	matchOps      int64
	propTime      time.Duration
	propagations  int64
	activations   int64
	deactivations int64
	firings       int64
	fireTime      time.Duration
	commits       int64
	aborts        int64
	ces           []ceAgg
}

type ceAgg struct {
	scans        int64
	scanTime     time.Duration
	joins        int64
	joinTime     time.Duration
	propagations int64
}

func (t *Tracer) ruleAggFor(name string) *ruleAgg {
	a := t.rules[name]
	if a == nil {
		a = &ruleAgg{}
		t.rules[name] = a
	}
	return a
}

func (a *ruleAgg) ceFor(i int) *ceAgg {
	for len(a.ces) <= i {
		a.ces = append(a.ces, ceAgg{})
	}
	return &a.ces[i]
}

// aggregate folds one event into the per-rule tables. Called under
// t.mu from Emit.
func (t *Tracer) aggregate(ev Event) {
	if ev.Rule == "" {
		return
	}
	a := t.ruleAggFor(ev.Rule)
	switch ev.Kind {
	case KindCondScan:
		a.matchTime += ev.Dur
		n := ev.Count
		if n <= 0 {
			n = 1
		}
		a.matchOps += n
		if ev.CE >= 0 {
			ce := a.ceFor(ev.CE)
			ce.scans += n
			ce.scanTime += ev.Dur
		}
	case KindJoinEval:
		a.matchTime += ev.Dur
		a.matchOps++
		if ev.CE >= 0 {
			ce := a.ceFor(ev.CE)
			ce.joins++
			ce.joinTime += ev.Dur
		}
	case KindPatternPropagate:
		a.propTime += ev.Dur
		n := ev.Count
		if n <= 0 {
			n = 1
		}
		a.propagations += n
		if ev.CE >= 0 {
			a.ceFor(ev.CE).propagations += n
		}
	case KindActivation:
		a.activations++
	case KindDeactivation:
		a.deactivations++
	case KindRuleFire:
		a.firings++
		a.fireTime += ev.Dur
		t.last[ev.Rule] = ev
	case KindTxnCommit:
		a.commits++
	case KindTxnAbort:
		a.aborts++
	}
}

// CEProfile is the aggregated match cost of one condition element.
type CEProfile struct {
	Index        int
	Class        string
	Negated      bool
	Scans        int64         // patterns / candidates checked
	ScanTime     time.Duration // time in condition scans
	Joins        int64         // join evaluations
	JoinTime     time.Duration // time in join evaluations
	Propagations int64         // matching patterns propagated through this CE
}

// RuleProfile is the aggregated cost of one rule across a trace.
type RuleProfile struct {
	Name          string
	MatchTime     time.Duration // condition scans + join evaluations
	MatchOps      int64
	PropTime      time.Duration
	Propagations  int64
	Activations   int64
	Deactivations int64
	Firings       int64
	FireTime      time.Duration // RHS execution time
	Commits       int64
	Aborts        int64
	CEs           []CEProfile
}

// Profile is a point-in-time per-rule cost table plus trace-wide
// event-kind totals.
type Profile struct {
	Total   uint64           // events accepted since Start
	Dropped uint64           // events lost to ring overflow
	Kinds   map[string]int64 // per-kind accepted counts
	Rules   []RuleProfile    // sorted by rule name
}

// Profile snapshots the per-rule aggregates.
func (t *Tracer) Profile() Profile {
	p := Profile{Kinds: map[string]int64{}}
	if t == nil {
		return p
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p.Total = t.next
	if n := uint64(len(t.buf)); t.next > n {
		p.Dropped = t.next - n
	}
	for k := Kind(1); k < kindCount; k++ {
		if t.kinds[k] != 0 {
			p.Kinds[k.String()] = t.kinds[k]
		}
	}
	p.Rules = make([]RuleProfile, 0, len(t.rules))
	for name, a := range t.rules {
		rp := RuleProfile{
			Name:          name,
			MatchTime:     a.matchTime,
			MatchOps:      a.matchOps,
			PropTime:      a.propTime,
			Propagations:  a.propagations,
			Activations:   a.activations,
			Deactivations: a.deactivations,
			Firings:       a.firings,
			FireTime:      a.fireTime,
			Commits:       a.commits,
			Aborts:        a.aborts,
		}
		info, hasInfo := t.info[name]
		rp.CEs = make([]CEProfile, len(a.ces))
		for i, ce := range a.ces {
			cp := CEProfile{
				Index:        i,
				Scans:        ce.scans,
				ScanTime:     ce.scanTime,
				Joins:        ce.joins,
				JoinTime:     ce.joinTime,
				Propagations: ce.propagations,
			}
			if hasInfo && i < len(info.CEs) {
				cp.Class = info.CEs[i].Class
				cp.Negated = info.CEs[i].Negated
			}
			rp.CEs[i] = cp
		}
		p.Rules = append(p.Rules, rp)
	}
	sort.Slice(p.Rules, func(i, j int) bool { return p.Rules[i].Name < p.Rules[j].Name })
	return p
}

// Rule returns the profile row for one rule.
func (p Profile) Rule(name string) (RuleProfile, bool) {
	for _, r := range p.Rules {
		if r.Name == name {
			return r, true
		}
	}
	return RuleProfile{}, false
}

// String renders the profile as an aligned per-rule table.
func (p Profile) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %12s %8s %12s %8s %6s %12s %7s\n",
		"rule", "match", "m-ops", "propagate", "acts", "fires", "fire-time", "aborts")
	for _, r := range p.Rules {
		fmt.Fprintf(&b, "%-28s %12s %8d %12s %8d %6d %12s %7d\n",
			r.Name, fmtDur(r.MatchTime), r.MatchOps, fmtDur(r.PropTime),
			r.Activations, r.Firings, fmtDur(r.FireTime), r.Aborts)
	}
	fmt.Fprintf(&b, "events: %d accepted, %d dropped\n", p.Total, p.Dropped)
	if len(p.Kinds) > 0 {
		keys := make([]string, 0, len(p.Kinds))
		for k := range p.Kinds {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "  %-20s %d\n", k, p.Kinds[k])
		}
	}
	return b.String()
}

func fmtDur(d time.Duration) string {
	if d == 0 {
		return "0"
	}
	return d.Round(time.Microsecond).String()
}

// ExplainCE names one supporting condition element of a fired
// instantiation.
type ExplainCE struct {
	Index   int
	Class   string
	Negated bool
	TupleID uint64 // 0 for negated CEs (supported by absence)
}

// Explanation describes the most recent firing of a rule: which
// condition elements matched and which working-memory tuples
// supported the instantiation.
type Explanation struct {
	Rule    string
	Key     string // instantiation key (rule|id|id|...)
	At      time.Duration
	Dur     time.Duration
	Firings int64 // total firings of the rule so far
	CEs     []ExplainCE
	// Plan is the rendered join plan(s) for the rule — access path,
	// join position, and estimated vs actual cardinality per condition
	// element. Empty when no plan renderer is installed (planner
	// disabled) or the rule has no plans.
	Plan string
}

// String renders a human-readable explanation.
func (e Explanation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s fired at %s (firing %d, rhs %s)\n", e.Rule, e.At.Round(time.Microsecond), e.Firings, fmtDur(e.Dur))
	for _, ce := range e.CEs {
		neg := ""
		if ce.Negated {
			neg = "absence of "
		}
		class := ce.Class
		if class == "" {
			class = "?"
		}
		if ce.Negated {
			fmt.Fprintf(&b, "  CE%d: %s%s matched (no blocking tuple)\n", ce.Index+1, neg, class)
		} else {
			fmt.Fprintf(&b, "  CE%d: %s supported by tuple %d\n", ce.Index+1, class, ce.TupleID)
		}
	}
	if e.Plan != "" {
		for _, line := range strings.Split(strings.TrimRight(e.Plan, "\n"), "\n") {
			fmt.Fprintf(&b, "  %s\n", line)
		}
	}
	return b.String()
}

// Explain reconstructs the most recent firing of the named rule from
// the trace: the supporting tuple IDs come from the instantiation key
// carried on the RuleFire event, and the class of each condition
// element from the rule metadata installed via SetRules.
func (t *Tracer) Explain(rule string) (Explanation, error) {
	ex, err := t.explain(rule)
	if err != nil {
		return ex, err
	}
	// Render the join plan outside t.mu: the renderer consults the
	// planner, which has its own locking.
	t.mu.Lock()
	render := t.planText
	t.mu.Unlock()
	if render != nil {
		ex.Plan = render(rule)
	}
	return ex, nil
}

// SetPlanText installs the join-plan renderer Explain appends to each
// explanation — a callback because the planner lives above this
// package in the import graph.
func (t *Tracer) SetPlanText(render func(rule string) string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.planText = render
	t.mu.Unlock()
}

// explain builds the plan-free part of an Explanation under t.mu.
func (t *Tracer) explain(rule string) (Explanation, error) {
	if t == nil {
		return Explanation{}, fmt.Errorf("trace: tracer is nil")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ev, ok := t.last[rule]
	if !ok {
		return Explanation{}, fmt.Errorf("trace: no recorded firing for rule %q", rule)
	}
	ex := Explanation{Rule: rule, Key: ev.Extra, At: ev.At, Dur: ev.Dur}
	if a := t.rules[rule]; a != nil {
		ex.Firings = a.firings
	}
	info, hasInfo := t.info[rule]
	parts := strings.Split(ev.Extra, "|")
	// parts[0] is the rule name; the rest are supporting tuple IDs,
	// one per condition element (0 for negated CEs).
	ids := parts
	if len(parts) > 0 && parts[0] == rule {
		ids = parts[1:]
	}
	n := len(ids)
	if hasInfo && len(info.CEs) > n {
		n = len(info.CEs)
	}
	for i := 0; i < n; i++ {
		ce := ExplainCE{Index: i}
		if hasInfo && i < len(info.CEs) {
			ce.Class = info.CEs[i].Class
			ce.Negated = info.CEs[i].Negated
		}
		if i < len(ids) {
			if id, err := strconv.ParseUint(ids[i], 10, 64); err == nil {
				ce.TupleID = id
			}
		}
		ex.CEs = append(ex.CEs, ce)
	}
	return ex, nil
}
