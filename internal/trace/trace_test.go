package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestRingOverflow(t *testing.T) {
	tr := New()
	tr.Start(Options{Capacity: 8})
	for i := 0; i < 20; i++ {
		tr.Emit(Event{Kind: KindRuleFire, Rule: "r", Count: int64(i)})
	}
	evs := tr.Events()
	if len(evs) != 8 {
		t.Fatalf("retained %d events, want 8", len(evs))
	}
	for i, ev := range evs {
		wantSeq := uint64(12 + i)
		if ev.Seq != wantSeq {
			t.Fatalf("event %d has seq %d, want %d (oldest-first order)", i, ev.Seq, wantSeq)
		}
	}
	if got := tr.Total(); got != 20 {
		t.Fatalf("Total = %d, want 20", got)
	}
	if got := tr.Dropped(); got != 12 {
		t.Fatalf("Dropped = %d, want 12", got)
	}
	if got := tr.Len(); got != 8 {
		t.Fatalf("Len = %d, want 8", got)
	}
	// Aggregates must survive the overflow.
	p := tr.Profile()
	if p.Total != 20 || p.Dropped != 12 {
		t.Fatalf("Profile totals = %d/%d, want 20/12", p.Total, p.Dropped)
	}
	rp, ok := p.Rule("r")
	if !ok || rp.Firings != 20 {
		t.Fatalf("rule r firings = %d (ok=%v), want 20: overflow must not lose aggregates", rp.Firings, ok)
	}
	if got := tr.KindCount(KindRuleFire); got != 20 {
		t.Fatalf("KindCount(rule_fire) = %d, want 20", got)
	}
}

func TestDisabledFastPathDoesNotAllocate(t *testing.T) {
	var nilTr *Tracer
	fresh := New()
	stopped := New()
	stopped.Start(Options{Capacity: 16})
	stopped.Stop()
	for name, tr := range map[string]*Tracer{"nil": nilTr, "fresh": fresh, "stopped": stopped} {
		allocs := testing.AllocsPerRun(200, func() {
			t0 := tr.Now()
			tr.Emit(Event{Kind: KindJoinEval, At: t0, Dur: tr.Now() - t0, Rule: "r", CE: 1, Class: "c", Count: 3})
			if tr.Enabled() {
				t.Fatal("tracer should be disabled")
			}
		})
		if allocs != 0 {
			t.Fatalf("%s disabled tracer allocated %.1f per op, want 0", name, allocs)
		}
	}
	if nilTr.Now() != 0 || fresh.Now() != 0 {
		t.Fatal("disabled Now() must return 0 without reading the clock")
	}
}

func TestProfileAggregation(t *testing.T) {
	tr := New()
	tr.SetRules([]RuleInfo{{Name: "r1", CEs: []CEInfo{{Class: "Emp"}, {Class: "Dept", Negated: true}}}})
	tr.Start(Options{Capacity: 64})
	tr.Emit(Event{Kind: KindCondScan, Rule: "r1", CE: 0, Class: "Emp", Count: 5, Dur: 10 * time.Microsecond})
	tr.Emit(Event{Kind: KindJoinEval, Rule: "r1", CE: 1, Class: "Dept", Count: 2, Dur: 20 * time.Microsecond})
	tr.Emit(Event{Kind: KindPatternPropagate, Rule: "r1", CE: 1, Class: "Dept", Count: 3, Dur: 5 * time.Microsecond})
	tr.Emit(Event{Kind: KindActivation, Rule: "r1"})
	tr.Emit(Event{Kind: KindRuleFire, Rule: "r1", Dur: 7 * time.Microsecond, Extra: "r1|4|0"})
	tr.Emit(Event{Kind: KindDeactivation, Rule: "r1"})
	tr.Emit(Event{Kind: KindTxnCommit, Rule: "r1"})
	tr.Emit(Event{Kind: KindTxnAbort, Rule: "r1", Extra: "stale"})
	// Rule-less events must not create profile rows.
	tr.Emit(Event{Kind: KindBatchApply, ID: 9, Dur: time.Microsecond})

	p := tr.Profile()
	if len(p.Rules) != 1 {
		t.Fatalf("profile has %d rules, want 1", len(p.Rules))
	}
	r, _ := p.Rule("r1")
	if r.MatchTime != 30*time.Microsecond {
		t.Errorf("MatchTime = %v, want 30µs", r.MatchTime)
	}
	if r.MatchOps != 6 { // 5 scanned patterns + 1 join eval
		t.Errorf("MatchOps = %d, want 6", r.MatchOps)
	}
	if r.PropTime != 5*time.Microsecond || r.Propagations != 3 {
		t.Errorf("prop = %v/%d, want 5µs/3", r.PropTime, r.Propagations)
	}
	if r.Activations != 1 || r.Deactivations != 1 {
		t.Errorf("acts = %d/%d, want 1/1", r.Activations, r.Deactivations)
	}
	if r.Firings != 1 || r.FireTime != 7*time.Microsecond {
		t.Errorf("firings = %d/%v, want 1/7µs", r.Firings, r.FireTime)
	}
	if r.Commits != 1 || r.Aborts != 1 {
		t.Errorf("commits/aborts = %d/%d, want 1/1", r.Commits, r.Aborts)
	}
	if len(r.CEs) != 2 {
		t.Fatalf("rule has %d CE rows, want 2", len(r.CEs))
	}
	if r.CEs[0].Class != "Emp" || r.CEs[0].Scans != 5 || r.CEs[0].ScanTime != 10*time.Microsecond {
		t.Errorf("CE0 = %+v, want Emp/5 scans/10µs", r.CEs[0])
	}
	if r.CEs[1].Class != "Dept" || !r.CEs[1].Negated || r.CEs[1].Joins != 1 || r.CEs[1].Propagations != 3 {
		t.Errorf("CE1 = %+v, want Dept negated 1 join 3 props", r.CEs[1])
	}
	if p.Kinds["rule_fire"] != 1 || p.Kinds["batch_apply"] != 1 {
		t.Errorf("kind counts = %v", p.Kinds)
	}
	if !strings.Contains(p.String(), "r1") {
		t.Error("Profile.String() must mention the rule")
	}
}

func TestExplain(t *testing.T) {
	tr := New()
	tr.SetRules([]RuleInfo{{Name: "r1", CEs: []CEInfo{{Class: "Emp"}, {Class: "Dept", Negated: true}}}})
	tr.Start(Options{})
	if _, err := tr.Explain("r1"); err == nil {
		t.Fatal("Explain before any firing must error")
	}
	tr.Emit(Event{Kind: KindRuleFire, Rule: "r1", At: time.Millisecond, Dur: 2 * time.Microsecond, Extra: "r1|42|0"})
	ex, err := tr.Explain("r1")
	if err != nil {
		t.Fatal(err)
	}
	if ex.Rule != "r1" || ex.Key != "r1|42|0" || ex.Firings != 1 {
		t.Fatalf("explanation = %+v", ex)
	}
	if len(ex.CEs) != 2 {
		t.Fatalf("explanation has %d CEs, want 2", len(ex.CEs))
	}
	if ex.CEs[0].Class != "Emp" || ex.CEs[0].TupleID != 42 || ex.CEs[0].Negated {
		t.Errorf("CE0 = %+v, want Emp tuple 42", ex.CEs[0])
	}
	if ex.CEs[1].Class != "Dept" || !ex.CEs[1].Negated || ex.CEs[1].TupleID != 0 {
		t.Errorf("CE1 = %+v, want negated Dept", ex.CEs[1])
	}
	s := ex.String()
	if !strings.Contains(s, "Emp") || !strings.Contains(s, "42") || !strings.Contains(s, "Dept") {
		t.Errorf("Explanation.String() = %q", s)
	}
	if _, err := tr.Explain("ghost"); err == nil {
		t.Error("Explain of unknown rule must error")
	}
}

func TestWriteJSONL(t *testing.T) {
	tr := New()
	tr.Start(Options{Capacity: 16})
	tr.Emit(Event{Kind: KindTupleInsert, Class: "Emp", ID: 1, Dur: time.Microsecond})
	tr.Emit(Event{Kind: KindRuleFire, Rule: "r1", Extra: "r1|1"})
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var lines int
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line %d is not JSON: %v", lines, err)
		}
		if _, ok := m["kind"].(string); !ok {
			t.Fatalf("line %d has no string kind: %v", lines, m)
		}
		lines++
	}
	if lines != 2 {
		t.Fatalf("wrote %d lines, want 2", lines)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	tr := New()
	tr.Start(Options{Capacity: 16})
	tr.Emit(Event{Kind: KindCondScan, Rule: "r1", CE: 0, Class: "Emp", Count: 4, At: time.Millisecond, Dur: 3 * time.Microsecond})
	tr.Emit(Event{Kind: KindTxnAbort, ID: 7})
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.TraceEvents) != 2 {
		t.Fatalf("chrome trace has %d events, want 2", len(out.TraceEvents))
	}
	first := out.TraceEvents[0]
	if first["ph"] != "X" {
		t.Errorf("timed event phase = %v, want X", first["ph"])
	}
	if first["ts"].(float64) != 1000 { // 1ms in µs
		t.Errorf("ts = %v, want 1000", first["ts"])
	}
	if out.TraceEvents[1]["ph"] != "i" {
		t.Errorf("instant event phase = %v, want i", out.TraceEvents[1]["ph"])
	}
}

func TestStartResetsAndStopRetains(t *testing.T) {
	tr := New()
	tr.Start(Options{Capacity: 8})
	tr.Emit(Event{Kind: KindRuleFire, Rule: "a"})
	tr.Stop()
	if tr.Enabled() {
		t.Fatal("Stop must disable")
	}
	tr.Emit(Event{Kind: KindRuleFire, Rule: "a"}) // dropped: disabled
	if tr.Total() != 1 {
		t.Fatalf("Total after Stop = %d, want 1", tr.Total())
	}
	if len(tr.Events()) != 1 {
		t.Fatal("events must remain readable after Stop")
	}
	tr.Start(Options{Capacity: 8})
	if tr.Total() != 0 || len(tr.Events()) != 0 {
		t.Fatal("Start must reset the buffer and counters")
	}
	if len(tr.Profile().Rules) != 0 {
		t.Fatal("Start must reset aggregates")
	}
}

func TestKindNames(t *testing.T) {
	seen := map[string]bool{}
	for _, name := range Kinds() {
		if name == "" || name == "unknown" || seen[name] {
			t.Fatalf("bad or duplicate kind name %q", name)
		}
		seen[name] = true
	}
	if !seen["rule_fire"] || !seen["txn_abort"] || !seen["batch_apply"] {
		t.Fatalf("missing expected kind names: %v", seen)
	}
	b, err := KindRuleFire.MarshalJSON()
	if err != nil || string(b) != `"rule_fire"` {
		t.Fatalf("MarshalJSON = %s, %v", b, err)
	}
}
