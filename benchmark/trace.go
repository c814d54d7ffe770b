package main

// Spans recorded from outside the program: one around every call the
// harness makes into a public function, plus one around every Write and
// Sync the WAL issues through a wrapped filesystem. Spans stay in memory
// and are flushed as Chrome-trace JSON when the traced pass ends.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"prodsys/internal/fsx"
)

type span struct {
	name   string
	layer  string
	peel   string
	parent int // index of the causing span, -1 for an op's root span
	start  int64
	end    int64
}

// tracer collects spans. A nil *tracer records nothing, so the same replay
// code runs with spans on and off (the difference is trace.overhead_ratio).
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	peel  string
	spans []span
	// on gates recording, so a peel's preload leaves no spans.
	on atomic.Bool
	// current is the root span of the op in flight, the parent of spans
	// recorded by code that cannot be handed one (the WAL's file calls).
	current atomic.Int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// root opens the span of one whole op in the named peel.
func (t *tracer) root(peel, layer string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	t.peel = peel
	t.mu.Unlock()
	id := t.begin(peel, layer, -1)
	t.current.Store(int64(id))
	return id
}

// begin opens a span caused by span parent and returns its index, or -1
// when nothing is being recorded.
func (t *tracer) begin(name, layer string, parent int) int {
	if t == nil || !t.on.Load() {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{name: name, layer: layer, peel: t.peel, parent: parent, start: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// writeChrome flushes the spans as a Chrome trace (chrome://tracing,
// Perfetto): one complete event per span, one thread lane per peel.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	lanes := map[string]int{}
	events := make([]event, 0, len(t.spans))
	for id, s := range t.spans {
		lane, ok := lanes[s.peel]
		if !ok {
			lane = len(lanes) + 1
			lanes[s.peel] = lane
		}
		opID := id
		if s.parent >= 0 {
			opID = s.parent
		}
		events = append(events, event{
			Name: s.name, Cat: s.layer, Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: lane,
			Args: map[string]any{"peel": s.peel, "op_id": opID, "parent": s.parent, "start_ns": s.start, "end_ns": s.end},
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// timedFS wraps the filesystem under the WAL so that every Write and Sync
// is timed (and, with a tracer, becomes a child span of the op in flight).
type timedFS struct {
	fsx.FS
	tr *tracer

	mu         sync.Mutex
	writeNs    int64
	writeCalls int64
	writeBytes int64
	syncNs     []int64
}

func newTimedFS(tr *tracer) *timedFS { return &timedFS{FS: fsx.OS{}, tr: tr} }

func (fs *timedFS) Create(name string) (fsx.File, error) {
	f, err := fs.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: f, fs: fs}, nil
}

func (fs *timedFS) OpenAppend(name string) (fsx.File, error) {
	f, err := fs.FS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: f, fs: fs}, nil
}

// reset forgets what was recorded so far (the preload's log traffic).
func (fs *timedFS) reset() {
	fs.mu.Lock()
	fs.writeNs, fs.writeCalls, fs.writeBytes, fs.syncNs = 0, 0, 0, nil
	fs.mu.Unlock()
}

// sortedSyncs returns the fsync durations in ascending order.
func (fs *timedFS) sortedSyncs() []int64 {
	fs.mu.Lock()
	sorted := slices.Clone(fs.syncNs)
	fs.mu.Unlock()
	slices.Sort(sorted)
	return sorted
}

type timedFile struct {
	fsx.File
	fs *timedFS
}

func (f *timedFile) parent() int {
	if f.fs.tr == nil {
		return -1
	}
	return int(f.fs.tr.current.Load())
}

func (f *timedFile) Write(p []byte) (int, error) {
	sp := f.fs.tr.begin("wal.Write", "wal", f.parent())
	t0 := time.Now()
	n, err := f.File.Write(p)
	d := int64(time.Since(t0))
	f.fs.tr.end(sp)
	f.fs.mu.Lock()
	f.fs.writeNs += d
	f.fs.writeCalls++
	f.fs.writeBytes += int64(n)
	f.fs.mu.Unlock()
	return n, err
}

func (f *timedFile) Sync() error {
	sp := f.fs.tr.begin("wal.Sync", "wal", f.parent())
	t0 := time.Now()
	err := f.File.Sync()
	d := int64(time.Since(t0))
	f.fs.tr.end(sp)
	f.fs.mu.Lock()
	f.fs.syncNs = append(f.fs.syncNs, d)
	f.fs.mu.Unlock()
	return err
}
