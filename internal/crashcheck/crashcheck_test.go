// Package crashcheck holds the crash-recovery equivalence property
// tests: a system killed at ANY point — any WAL record boundary, any
// torn byte offset, any injected write fault — must recover to working
// memory and a conflict set identical to some committed prefix of the
// run it was killed in. The oracle is the live run itself: the state
// after every committed unit is captured and indexed by the wal_appends
// counter, then each crash image is rebooted and compared.
package crashcheck

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"testing"

	"prodsys"
	"prodsys/internal/faultfs"
	"prodsys/internal/wal"
)

// crashSrc declares the workload rulebase. No initial facts: everything
// enters working memory through the transactional batch API or rule
// firings, so every tuple of the final state traveled through the WAL.
const crashSrc = `
(literalize Job id state)
(literalize Done id)
(literalize Elem x)

(p finish
    (Job ^id <i> ^state ready)
  -->
    (modify 1 ^state done)
    (make Done ^id <i>))

(p lonely
    (Elem ^x <v>)
  - (Done ^id <v>)
  -->
    (make Done ^id <v>))
`

const walPath = "wm.wal"

// snap is one observable state: canonical WM dump plus the sorted
// conflict-set keys. Two snaps are equal iff the recovered system is
// indistinguishable from the live one at that unit boundary.
type snap struct {
	wm   string
	keys string
}

func capture(s *prodsys.System) snap {
	keys := s.ConflictKeys()
	sort.Strings(keys)
	return snap{wm: s.WM(), keys: strings.Join(keys, "\n")}
}

func appends(s *prodsys.System) int {
	return int(s.Metrics().Durability.WALAppends)
}

// drive runs the workload: each iteration commits one batch (asserts
// plus periodic retracts) and then fires at most one rule. After every
// successful operation the state is recorded under the current
// wal_appends count; on the first error (a crashed filesystem) the
// in-memory state is still recorded — the unit may have reached the log
// even though the call failed — and driving stops.
func drive(t *testing.T, sys *prodsys.System, iters int, states map[int]snap) {
	t.Helper()
	var elems []uint64
	record := func() { states[appends(sys)] = capture(sys) }
	record()
	for i := 1; i <= iters; i++ {
		b := sys.Batch().
			Assert("Job", i, "ready").
			Assert("Elem", i%5)
		if i%3 == 0 && len(elems) > 0 {
			b.Retract("Elem", elems[0])
			elems = elems[1:]
		}
		ids, err := b.Commit()
		record()
		if err != nil {
			return
		}
		elems = append(elems, ids[1])
		// MaxFirings 1 makes every productive Run call end with the
		// firing-cap error; the single firing it performed still
		// committed, so only other errors (a crashed disk) stop the run.
		if _, err := sys.Run(); err != nil && !strings.Contains(err.Error(), "firing cap") {
			record()
			return
		}
		record()
	}
}

// load opens the workload system over the given (fault-injectable)
// filesystem. MaxFirings 1 turns each Run call into a single rule
// firing, so the oracle sees a state at every unit boundary.
func load(m prodsys.Matcher, fs *faultfs.FS) (*prodsys.System, error) {
	return prodsys.Load(crashSrc, prodsys.Options{
		Matcher:    m,
		MaxFirings: 1,
		Out:        io.Discard,
		WALPath:    walPath,
		WALFS:      fs,
	})
}

// reboot loads a fresh system from a surviving disk image.
func reboot(t *testing.T, m prodsys.Matcher, image map[string][]byte) *prodsys.System {
	t.Helper()
	sys, err := prodsys.Load(crashSrc, prodsys.Options{
		Matcher: m,
		Out:     io.Discard,
		WALPath: walPath,
		WALFS:   faultfs.FromSnapshot(image),
	})
	if err != nil {
		t.Fatalf("recovery load: %v", err)
	}
	return sys
}

// matcherCase names a per-matcher subtest and the matcher it runs.
type matcherCase struct {
	name    string
	matcher prodsys.Matcher
}

// matcherCases is one case per prodsys.Matchers() entry plus
// "rete-shared", the name the prefix-shared Rete network ran under while
// "rete" was an unshared compile. "rete" compiles the shared network now;
// the extra case runs it under its former name, so per-matcher subtests
// keep the names they had before the two compiles merged.
func matcherCases() []matcherCase {
	var out []matcherCase
	for _, m := range prodsys.Matchers() {
		out = append(out, matcherCase{string(m), m})
	}
	return append(out, matcherCase{"rete-shared", prodsys.MatcherRete})
}

// TestRecoveryAtEveryRecordBoundary drives a 200+-transaction workload
// once per matcher, then crashes it at every single WAL record boundary
// by truncating the log to that prefix and rebooting. The recovered
// state must equal the live state captured after exactly the units
// committed in that prefix — for every matching algorithm, since
// recovery replays through each matcher's own maintenance path.
func TestRecoveryAtEveryRecordBoundary(t *testing.T) {
	const iters = 105
	for _, c := range matcherCases() {
		m := c.matcher
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			fs := faultfs.New()
			sys, err := load(m, fs)
			if err != nil {
				t.Fatal(err)
			}
			states := map[int]snap{}
			drive(t, sys, iters, states)
			total := appends(sys)
			if total < 200 {
				t.Fatalf("workload produced %d units, want >= 200", total)
			}
			if err := sys.Close(); err != nil {
				t.Fatal(err)
			}

			data := fs.Snapshot()[walPath]
			_, units, bounds, torn := wal.ScanLog(data)
			if torn {
				t.Fatal("clean shutdown left a torn log")
			}
			if len(units) != total {
				t.Fatalf("log holds %d units, counter says %d", len(units), total)
			}
			for _, b := range bounds {
				prefix := data[:b]
				_, u, _, _ := wal.ScanLog(prefix)
				want, ok := states[len(u)]
				if !ok {
					t.Fatalf("no oracle state for %d units", len(u))
				}
				rec := reboot(t, m, map[string][]byte{walPath: prefix})
				if got := capture(rec); got != want {
					t.Fatalf("crash at byte %d (%d units): recovered state diverges\nwm:\n%s\nwant wm:\n%s\nkeys:\n%s\nwant keys:\n%s",
						b, len(u), got.wm, want.wm, got.keys, want.keys)
				}
				info := rec.Recovery()
				if !info.Recovered || info.Txns != len(u) || info.TornTail {
					t.Fatalf("crash at byte %d: recovery info %+v, want %d clean txns", b, info, len(u))
				}
				rec.Close()
			}
		})
	}
}

// TestRecoveryFromTornTails crashes mid-record: for a sample of byte
// offsets strictly inside records, recovery must land on the last full
// unit before the tear and report the torn tail.
func TestRecoveryFromTornTails(t *testing.T) {
	fs := faultfs.New()
	sys, err := load(prodsys.MatcherCore, fs)
	if err != nil {
		t.Fatal(err)
	}
	states := map[int]snap{}
	drive(t, sys, 40, states)
	sys.Close()

	data := fs.Snapshot()[walPath]
	_, _, bounds, _ := wal.ScanLog(data)
	for i := 0; i+1 < len(bounds); i += 3 {
		lo, hi := bounds[i], bounds[i+1]
		if hi-lo < 2 {
			continue
		}
		cut := lo + (hi-lo)/2
		prefix := data[:cut]
		_, u, _, _ := wal.ScanLog(prefix)
		rec := reboot(t, prodsys.MatcherCore, map[string][]byte{walPath: prefix})
		if got, want := capture(rec), states[len(u)]; got != want {
			t.Fatalf("tear at byte %d: recovered state diverges from unit %d", cut, len(u))
		}
		if info := rec.Recovery(); !info.TornTail {
			t.Fatalf("tear at byte %d not reported: %+v", cut, info)
		}
		rec.Close()
	}
}

// TestCrashAtEveryWrite is the full fault-injection sweep, with
// checkpoint compaction in the loop: the workload reruns once per
// write the clean run performs, crashing (torn write, frozen
// filesystem) at that write. Whatever survives on the frozen disk —
// mid-unit, mid-checkpoint, between the checkpoint rename and the log
// reset — must reboot into SOME state the live run passed through.
func TestCrashAtEveryWrite(t *testing.T) {
	const iters = 25
	run := func(crashAt, keep int) (map[int]snap, *faultfs.FS) {
		fs := faultfs.New()
		if crashAt > 0 {
			fs.FailWrite(crashAt, keep, true)
		}
		sys, err := prodsys.Load(crashSrc, prodsys.Options{
			Matcher:            prodsys.MatcherCore,
			MaxFirings:         1,
			Out:                io.Discard,
			WALPath:            walPath,
			WALFS:              fs,
			WALCheckpointEvery: 8,
		})
		states := map[int]snap{}
		if err != nil {
			return states, fs // crashed inside Load: only pre-open states exist
		}
		drive(t, sys, iters, states)
		sys.Close()
		return states, fs
	}

	// Clean run: learn the write count and the full oracle.
	clean, cleanFS := run(0, 0)
	if cleanFS.Crashed() {
		t.Fatal("clean run crashed")
	}
	legal := map[snap]bool{}
	for _, st := range clean {
		legal[st] = true
	}
	total := cleanFS.Writes()
	if total < 100 {
		t.Fatalf("clean run performed %d writes, workload too small", total)
	}

	for k := 1; k <= total; k++ {
		states, fs := run(k, k%4)
		for _, st := range states {
			legal[st] = true // states reached before the crash surfaced
		}
		rec, err := prodsys.Load(crashSrc, prodsys.Options{
			Matcher:            prodsys.MatcherCore,
			Out:                io.Discard,
			WALPath:            walPath,
			WALFS:              faultfs.FromSnapshot(fs.Snapshot()),
			WALCheckpointEvery: 8,
		})
		if err != nil {
			t.Fatalf("crash at write %d: recovery load: %v", k, err)
		}
		if got := capture(rec); !legal[got] {
			t.Fatalf("crash at write %d: recovered to a state the live run never committed\nwm:\n%s\nkeys:\n%s",
				k, got.wm, got.keys)
		}
		rec.Close()
	}
}

// TestCheckpointCompactionEquivalence reruns the boundary sweep against
// a log that has been checkpoint-compacted mid-run: recovery must see
// checkpoint + tail as exactly the same world as the uncompacted log.
func TestCheckpointCompactionEquivalence(t *testing.T) {
	for _, every := range []int{1, 8} {
		t.Run(fmt.Sprintf("every=%d", every), func(t *testing.T) {
			fs := faultfs.New()
			sys, err := prodsys.Load(crashSrc, prodsys.Options{
				Matcher:            prodsys.MatcherRete,
				MaxFirings:         1,
				Out:                io.Discard,
				WALPath:            walPath,
				WALFS:              fs,
				WALCheckpointEvery: every,
			})
			if err != nil {
				t.Fatal(err)
			}
			states := map[int]snap{}
			drive(t, sys, 30, states)
			final := capture(sys)
			if n := sys.Metrics().Durability.WALCheckpoints; n == 0 {
				t.Fatal("no checkpoints taken")
			}
			sys.Close()

			rec := reboot(t, prodsys.MatcherRete, cleanImage(fs))
			if got := capture(rec); got != final {
				t.Fatalf("recovery after compaction diverges\nwm:\n%s\nwant:\n%s", got.wm, final.wm)
			}
			rec.Close()
		})
	}
}

// cleanImage snapshots a healthy filesystem for reboot.
func cleanImage(fs *faultfs.FS) map[string][]byte { return fs.Snapshot() }

// TestTruncationAtGroupCommitBoundaries cuts the log of a group-commit
// run at exactly every committed-unit boundary — the cut a replica
// promotion makes with TruncateTail — and asserts the reboot is
// perfectly clean: no torn tail reported, exactly the prefix's units
// replayed, state equal to the live oracle. One byte past the same
// boundary must instead report a torn tail yet recover to the very
// same state: the partial record carries no committed unit.
func TestTruncationAtGroupCommitBoundaries(t *testing.T) {
	fs := faultfs.New()
	sys, err := prodsys.Load(crashSrc, prodsys.Options{
		Matcher:    prodsys.MatcherRete,
		MaxFirings: 1,
		Out:        io.Discard,
		WALPath:    walPath,
		WALFS:      fs,
		WALSync:    prodsys.WALSyncGroup,
	})
	if err != nil {
		t.Fatal(err)
	}
	states := map[int]snap{}
	drive(t, sys, 30, states)
	sys.Close()

	data := fs.Snapshot()[walPath]
	_, _, bounds, torn := wal.ScanLog(data)
	if torn {
		t.Fatal("clean shutdown left a torn log")
	}
	unitCuts := 0
	for _, b := range bounds {
		if wal.LastUnitBoundary(data[:b]) != b {
			continue // record boundary mid-unit, not a commit boundary
		}
		unitCuts++
		prefix := data[:b]
		_, u, _, _ := wal.ScanLog(prefix)
		want, ok := states[len(u)]
		if !ok {
			t.Fatalf("no oracle state for %d units", len(u))
		}

		rec := reboot(t, prodsys.MatcherRete, map[string][]byte{walPath: prefix})
		if info := rec.Recovery(); info.TornTail || info.Txns != len(u) {
			t.Fatalf("cut at unit boundary %d: recovery %+v, want %d clean txns", b, info, len(u))
		}
		if got := capture(rec); got != want {
			t.Fatalf("cut at unit boundary %d: state diverges from live run", b)
		}
		rec.Close()

		if b < int64(len(data)) {
			past := data[:b+1]
			recTorn := reboot(t, prodsys.MatcherRete, map[string][]byte{walPath: past})
			if info := recTorn.Recovery(); !info.TornTail {
				t.Fatalf("cut one byte past boundary %d: torn tail not reported: %+v", b, info)
			}
			if got := capture(recTorn); got != want {
				t.Fatalf("cut one byte past boundary %d: state diverges", b)
			}
			recTorn.Close()
		}
	}
	if unitCuts < 30 {
		t.Fatalf("exercised only %d unit boundaries", unitCuts)
	}
}
