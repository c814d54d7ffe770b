package main

import "testing"

// pinnedStreams is the SHA-256 of each workload's preload plus its first 200
// ops for seed 1 at scale 1. A change here changes what every recorded
// number was measured on: it needs its own PR and a fresh baseline.
var pinnedStreams = map[string]string{
	"payroll-stream": "6f362636317faebf97373416a160da99d5ec4e9782c0c536cc0c45ced0814a2f",
	"chain-bulk":     "27fbbe4b6b8272693f9966ed0a42e5027a549e435468fa4ab2b3f93c638d0fa5",
	"jobshop-fire":   "4e9027e42a7b9b295c405bfc592ca71976c7089c16db237f8fbe9ca3967173bf",
	"serve-mixed":    "ebda90756f1c26f9af325325ad5edab114d73a0f1947da351dba8714df1ba688",
}

func TestStreamsArePinned(t *testing.T) {
	for _, w := range workloads {
		got := streamHash(w.newGen(1, 1), 200)
		if want := pinnedStreams[w.name]; got != want {
			t.Errorf("%s: seed 1 stream hash %s, pinned %s", w.name, got, want)
		}
		if again := streamHash(w.newGen(1, 1), 200); again != got {
			t.Errorf("%s: the same seed gave two different streams", w.name)
		}
		if other := streamHash(w.newGen(2, 1), 200); other == got {
			t.Errorf("%s: seed 2 gave the same stream as seed 1", w.name)
		}
	}
}
