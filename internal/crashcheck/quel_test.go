package crashcheck

import (
	"testing"

	"prodsys"
	"prodsys/internal/faultfs"
	"prodsys/internal/wal"
)

// TestQuelStatementAllOrNothing tears the log at every record boundary
// of a multi-row QUEL replace and of a multi-row delete. Each statement
// is one logged unit, so every crash image must reboot to the state
// before the statement or the state after it — never to a half-applied
// statement.
func TestQuelStatementAllOrNothing(t *testing.T) {
	const rows = 6
	fs := faultfs.New()
	sys, err := load(prodsys.MatcherCore, fs)
	if err != nil {
		t.Fatal(err)
	}
	b := sys.Batch()
	for i := 1; i <= rows; i++ {
		b.Assert("Job", i, "queued") // no rule matches a queued job
	}
	if _, err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Quel(`range of J is Job`); err != nil {
		t.Fatal(err)
	}
	// legal[i] is the state once i units are in the log.
	legal := map[int]snap{appends(sys): capture(sys)}
	for _, stmt := range []string{
		`replace J (state = "held") where J.state = "queued"`,
		`delete J where J.state = "held"`,
	} {
		before := appends(sys)
		r, err := sys.Quel(stmt)
		if err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		if r.Affected != rows {
			t.Fatalf("%s: affected %d rows, want %d", stmt, r.Affected, rows)
		}
		if got := appends(sys) - before; got != 1 {
			t.Fatalf("%s: logged as %d units, want 1", stmt, got)
		}
		legal[appends(sys)] = capture(sys)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	data := fs.Snapshot()[walPath]
	_, _, bounds, torn := wal.ScanLog(data)
	if torn {
		t.Fatal("clean shutdown left a torn log")
	}
	for _, cut := range bounds {
		prefix := data[:cut]
		_, units, _, _ := wal.ScanLog(prefix)
		if len(units) == 0 {
			continue // before the preload batch: nothing to compare
		}
		want, ok := legal[len(units)]
		if !ok {
			t.Fatalf("crash at byte %d: %d committed units is not a statement boundary", cut, len(units))
		}
		rec := reboot(t, prodsys.MatcherCore, map[string][]byte{walPath: prefix})
		if got := capture(rec); got != want {
			t.Fatalf("crash at byte %d (%d units): recovered a half-applied statement\nwm:\n%s\nwant wm:\n%s",
				cut, len(units), got.wm, want.wm)
		}
		rec.Close()
	}
}
