package prodsys_test

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"prodsys"
	"prodsys/internal/faultfs"
	repl "prodsys/internal/replica"
)

// replSrc mixes pure data (Elem), rule-consumed data (Job), and
// rule-produced data (Done), so shipped units exercise asserts,
// retracts, and firing keys (refraction state) through every matcher's
// maintenance path.
const replSrc = `
(literalize Job id state)
(literalize Done id)
(literalize Elem x)

(p finish
    (Job ^id <i> ^state ready)
  -->
    (modify 1 ^state done)
    (make Done ^id <i>))
`

// fingerprint is the byte-comparable observable state: canonical WM
// dump plus sorted conflict-set keys.
func fingerprint(s *prodsys.System) (string, string) {
	keys := s.ConflictKeys()
	sort.Strings(keys)
	return s.WM(), strings.Join(keys, "\n")
}

func waitCaughtUp(t *testing.T, pri, sec *prodsys.System) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		pe, po, _ := pri.WALPosition()
		re, ro, _ := sec.WALPosition()
		if pe == re && po == ro {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never caught up: %d:%d, primary %d:%d", re, ro, pe, po)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReplicationAllMatchers ships a live workload from a primary to a
// warm replica over the real feed protocol (HTTP stream, frame
// decoding, raw-byte mirroring, matcher-maintenance apply) and asserts
// the replica's working memory AND conflict set are byte-identical to
// the primary's — for every matching algorithm. It then promotes
// the replica: the audit gate must pass, the epoch must bump, and the
// node must accept writes.
func TestReplicationAllMatchers(t *testing.T) {
	for _, c := range prodsys.MatcherCases() {
		m := c.Matcher
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			pri, err := prodsys.Load(replSrc, prodsys.Options{
				Matcher: m, Out: io.Discard, WALPath: "p.wal", WALFS: faultfs.New(),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer pri.Close()

			done := make(chan struct{})
			mux := http.NewServeMux()
			mux.HandleFunc("GET /v1/wal", func(w http.ResponseWriter, r *http.Request) {
				repl.ServeFeed(w, r, repl.FeedConfig{
					Log:       pri.WALLog(),
					Poll:      2 * time.Millisecond,
					Heartbeat: 20 * time.Millisecond,
					Done:      done,
				})
			})
			ts := httptest.NewServer(mux)
			defer ts.Close()
			defer close(done)

			sec, err := prodsys.Load(replSrc, prodsys.Options{
				Matcher: m, Out: io.Discard, WALPath: "r.wal", WALFS: faultfs.New(),
				ReplicaOf: ts.URL,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer sec.Close()

			// A replica refuses writes with the typed error naming the mode.
			if _, err := sec.Batch().Assert("Elem", 0).Commit(); !errors.Is(err, prodsys.ErrReplica) {
				t.Fatalf("replica accepted a write: %v", err)
			}

			client := repl.NewClient(sec, ts.URL)
			client.Start()
			stopped := false
			defer func() {
				if !stopped {
					client.Stop()
				}
			}()

			// Drive the primary: asserts, retracts, and rule firings.
			var elems []uint64
			for i := 1; i <= 25; i++ {
				ids, err := pri.Batch().
					Assert("Job", i, "ready").
					Assert("Elem", i%4).
					Commit()
				if err != nil {
					t.Fatal(err)
				}
				elems = append(elems, ids[1])
				if i%3 == 0 {
					if _, err := pri.Batch().Retract("Elem", elems[0]).Commit(); err != nil {
						t.Fatal(err)
					}
					elems = elems[1:]
				}
				if i%5 == 0 {
					if _, err := pri.Run(); err != nil {
						t.Fatal(err)
					}
				}
			}
			// Leave unfired instantiations pending so the conflict-set
			// comparison below is not vacuous.
			if _, err := pri.Batch().Assert("Job", 100, "ready").Assert("Job", 101, "ready").Commit(); err != nil {
				t.Fatal(err)
			}

			waitCaughtUp(t, pri, sec)

			pwm, pkeys := fingerprint(pri)
			rwm, rkeys := fingerprint(sec)
			if pwm != rwm {
				t.Fatalf("working memories diverge\nprimary:\n%s\nreplica:\n%s", pwm, rwm)
			}
			if pkeys != rkeys {
				t.Fatalf("conflict sets diverge\nprimary:\n%s\nreplica:\n%s", pkeys, rkeys)
			}
			if pkeys == "" {
				t.Fatal("conflict-set comparison is vacuous: no pending instantiations")
			}
			if n := sec.Metrics().Replication.TxnsApplied; n == 0 {
				t.Fatal("replica applied no transactions")
			}

			// Promotion: feed stopped, tail truncated, audit gate passed,
			// epoch bumped, writes open.
			client.Stop()
			stopped = true
			pe, _, _ := pri.WALPosition()
			rep, err := sec.Promote()
			if err != nil {
				t.Fatalf("promote: %v", err)
			}
			if rep == nil || !rep.Clean() {
				t.Fatalf("promotion gate report not clean: %+v", rep)
			}
			if sec.IsReplica() || sec.ReplicaOf() != "" {
				t.Fatal("promoted node still reports replica mode")
			}
			ne, _, _ := sec.WALPosition()
			if ne != pe+1 {
				t.Fatalf("promoted epoch = %d, want %d (fencing token must advance)", ne, pe+1)
			}
			if _, err := sec.Batch().Assert("Elem", 9).Commit(); err != nil {
				t.Fatalf("promoted node refused a write: %v", err)
			}
			if _, err := sec.Promote(); !errors.Is(err, prodsys.ErrNotReplica) {
				t.Fatalf("second promote: %v, want ErrNotReplica", err)
			}
		})
	}
}
