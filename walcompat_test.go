package prodsys

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"prodsys/internal/faultfs"
)

// testdata/compat.wal is a log written by writeCompatLog before conflict-set
// keys became structs, and checked in, so key rendering and WAL bytes
// cannot drift unnoticed: the driver must reproduce it byte for byte, and
// recovering it must land on the pinned state. The file is fixed; a
// deliberate log format change replaces it by hand and says why.
const (
	compatWALPath = "compat.wal"
	// compatStateHash is stateDigest of the system recovered from
	// testdata/compat.wal.
	compatStateHash = "a7be35f4b658bc0fdd5c323539d4b5de63af89088c044071d68382ee79390713"
)

// compatSrc exercises every kind of logged firing key: a rule with a
// negated condition element (a zero ID in its key), a modify, and a rule
// with seven condition elements (more IDs than a key holds inline).
const compatSrc = `
(literalize Item id state)
(literalize Hold id)
(literalize Note id)
(literalize W k)
(p note (Item ^id <i> ^state open) - (Hold ^id <i>) --> (make Note ^id <i>))
(p finish (Item ^id <i> ^state done) --> (modify 1 ^state archived))
(p wide (W ^k 1) (W ^k 2) (W ^k 3) (W ^k 4) (W ^k 5) (W ^k 6) (W ^k 7) --> (make Note ^id 0))
`

func compatOpts(fs *faultfs.FS) Options {
	return Options{Out: io.Discard, WALFS: fs, WALPath: compatWALPath}
}

// writeCompatLog drives a fresh system through firings, a negated
// condition element blocking and unblocking a fired instantiation, and
// retractions of tuples that fired keys rest on, and returns its log.
func writeCompatLog(t *testing.T) []byte {
	t.Helper()
	fs := faultfs.New()
	sys, err := Load(compatSrc, compatOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	assert := func(class string, vals ...any) uint64 {
		t.Helper()
		id, err := sys.Assert(class, vals...)
		must(err)
		return id
	}
	run := func(want int) {
		t.Helper()
		res, err := sys.Run()
		must(err)
		if res.Firings != want {
			t.Fatalf("run fired %d rules, want %d", res.Firings, want)
		}
	}
	var items []uint64
	for i := 1; i <= 4; i++ {
		items = append(items, assert("Item", i, "open"))
	}
	var ws []uint64
	for k := 1; k <= 7; k++ {
		ws = append(ws, assert("W", k))
	}
	run(5)                          // note ×4, wide
	hold := assert("Hold", 2)       // blocks note for item 2; its mark stays
	must(sys.Retract("Hold", hold)) // unblocks: re-derived, still refracted
	must(sys.Retract("Item", items[2]))
	assert("Item", 5, "done")
	run(1) // finish
	must(sys.Retract("W", ws[3]))
	must(sys.Close())
	return fs.Snapshot()[compatWALPath]
}

// stateDigest hashes working memory and the sorted conflict-set keys.
func stateDigest(sys *System) string {
	h := sha256.New()
	io.WriteString(h, sys.WM())
	keys := sys.ConflictKeys()
	slices.Sort(keys)
	for _, k := range keys {
		io.WriteString(h, "\n"+k)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestCompatWALBytesStable(t *testing.T) {
	got := writeCompatLog(t)
	want, err := os.ReadFile(filepath.Join("testdata", "compat.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("driver wrote %d log bytes that differ from the %d checked in", len(got), len(want))
	}
}

func TestCompatWALRecovers(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "compat.wal"))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := Load(compatSrc, compatOpts(faultfs.FromSnapshot(map[string][]byte{compatWALPath: data})))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if !sys.Recovery().Recovered {
		t.Fatal("log not recovered")
	}
	if got := stateDigest(sys); got != compatStateHash {
		t.Fatalf("recovered state %s, want %s\nWM:\n%s\nconflict set: %v", got, compatStateHash, sys.WM(), sys.ConflictKeys())
	}
	// note fired for items 1, 2 and 4; all three are live again and must
	// stay refracted.
	if res, err := sys.Run(); err != nil || res.Firings != 0 {
		t.Fatalf("recovered system re-fired: %+v, %v", res, err)
	}
	// The supports of the forgotten marks were retracted; a fresh W 4
	// completes wide under a new key, which fires.
	if _, err := sys.Assert("W", 4); err != nil {
		t.Fatal(err)
	}
	if res, err := sys.Run(); err != nil || res.Firings != 1 {
		t.Fatalf("fresh wide instantiation: %+v, %v", res, err)
	}
}
