package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

// contract is the part of ../BENCHMARK.json the smoke test checks against.
type contract struct {
	Workloads []struct{ Name string }
	EndToEnd  []contractMetric `json:"end_to_end"`
	PerLayer  []contractMetric `json:"per_layer"`
}

type contractMetric struct{ Name, Unit string }

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// requireMetrics fails unless res carries exactly the contract's metrics,
// each with the contract's unit.
func requireMetrics(t *testing.T, what string, res result, want []contractMetric) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics reported, BENCHMARK.json names %d", what, len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("%s: metric %s of BENCHMARK.json is not reported", what, m.Name)
		} else if got.Unit != m.Unit || got.Unit == "" {
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", what, m.Name, got.Unit, m.Unit)
		}
	}
}

// TestSmoke runs every embedded workload, untraced and traced, and the
// in-process handler peel of serve-mixed at 1 % scale, twice: every metric
// BENCHMARK.json names must be present with its unit, every output check
// must pass, and the exact work counters and the final state must be
// identical between the two runs — the gate CI can hang on instead of
// wall time.
func TestSmoke(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(c.Workloads), len(workloads))
	}
	for _, w := range c.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json names workload %s, which the benchmark does not have", w.Name)
		}
	}
	cfg := config{seed: 1, seconds: 100 * time.Millisecond, scale: 0.01, workDir: t.TempDir(), outDir: t.TempDir()}

	for _, w := range workloads {
		if w.name == "serve-mixed" {
			continue
		}
		out, err := runEmbedded(w, cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if out.failed != 0 {
			t.Errorf("%s: %d of %d operations failed: %v", w.name, out.failed, out.attempted, out.errs)
		}
		res, err := out.result(endToEnd)
		if err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		requireMetrics(t, w.name+" untraced", res, c.EndToEnd)

		var runs [2]*outcome
		for i := range runs {
			if runs[i], err = runTraced(w, cfg); err != nil {
				t.Fatalf("%s traced: %v", w.name, err)
			}
			if runs[i].failed != 0 {
				t.Errorf("%s traced: %d of %d operations failed: %v", w.name, runs[i].failed, runs[i].attempted, runs[i].errs)
			}
			res, err := runs[i].result(perLayer)
			if err != nil {
				t.Errorf("%s traced: %v", w.name, err)
			}
			requireMetrics(t, w.name+" traced", res, c.PerLayer)
		}
		if !reflect.DeepEqual(runs[0].exact, runs[1].exact) {
			t.Errorf("%s: exact counters differ between two runs:\n%v\n%v", w.name, runs[0].exact, runs[1].exact)
		}
		if runs[0].stateHash != runs[1].stateHash || runs[0].stateHash == "" {
			t.Errorf("%s: final state differs between two runs", w.name)
		}
	}

	w, _ := findWorkload("serve-mixed")
	var peels [2]*peel
	for i := range peels {
		out := newOutcome()
		p, err := replay(w, cfg, peelSpec{name: "peel.handler", src: programSource(w.program), n: 200, wal: true, handler: true}, newTracer(), out)
		if err != nil {
			t.Fatalf("handler peel: %v", err)
		}
		if out.failed != 0 {
			t.Errorf("handler peel: %d of %d operations failed: %v", out.failed, out.attempted, out.errs)
		}
		peels[i] = p
	}
	if !reflect.DeepEqual(peels[0].delta, peels[1].delta) {
		t.Errorf("handler peel: counters differ between two runs:\n%v\n%v", peels[0].delta, peels[1].delta)
	}
	if peels[0].stateHash != peels[1].stateHash {
		t.Error("handler peel: final state differs between two runs")
	}
}
