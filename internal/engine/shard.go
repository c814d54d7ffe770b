package engine

import (
	"runtime"
	"sort"
	"strconv"
	"sync"

	"prodsys/internal/match"
	"prodsys/internal/metrics"
	"prodsys/internal/relation"
	"prodsys/internal/trace"
)

// This file is the parallel match scheduler: an ApplyDelta batch is
// split into per-shard sub-deltas (relation.DB.ShardOf — the same hash
// that placed the tuples and the matchers' derived state), and a
// bounded work-stealing worker pool drives them through the matcher's
// two-phase Shardable protocol — every shard's maintenance runs to a
// barrier before any shard detects, so detection always observes the
// complete post-batch derived state. Matchers that cannot shard (rete
// and rete-shared, whose ordered token propagation through shared beta
// prefixes is inherently cross-shard) simply don't implement
// match.Shardable and keep the serial path.
//
// The scheduler runs under maintMu and the batch's relation-level class
// locks, both already held by ApplyDelta — parallelism here subdivides
// the §5.2 non-interleavable maintenance window, it does not widen it.
// Conflict-set MEMBERSHIP is order-independent (every derivation and
// negation check evaluates against final WM state), and arrival
// sequence numbers are canonicalized after the parallel phases, so a
// sharded run's conflict set is byte-identical to an unsharded run's.

// shardTask is one schedulable unit: a sub-delta covering one shard
// (or, after rebalancing, one class of one shard).
type shardTask struct {
	shard int
	class string // "" = every class in sub; set on rebalanced splits
	sub   *relation.Delta
}

// shardWorkers resolves the worker-pool size for a given shard space:
// Config.ShardWorkers when positive, else min(space, max(2, NumCPU)) —
// at least two workers by default so the concurrent path is exercised
// (and its invariants raceable) even on small machines.
func (e *Engine) shardWorkers(space int) int {
	w := e.cfg.ShardWorkers
	if w == 0 {
		w = max(2, runtime.NumCPU())
	}
	return min(w, space)
}

// splitDelta partitions a batch delta by the tuples' shards, preserving
// per-class entry order within each sub-delta.
func splitDelta(db *relation.DB, d *relation.Delta, space int) []*relation.Delta {
	subs := make([]*relation.Delta, space)
	route := func(class string, e relation.DeltaEntry, del bool) {
		s := db.ShardOf(class, e.Tuple)
		if s < 0 || s >= space {
			s = 0
		}
		if subs[s] == nil {
			subs[s] = relation.NewDelta()
		}
		if del {
			subs[s].AddDelete(class, e.ID, e.Tuple)
		} else {
			subs[s].AddInsert(class, e.ID, e.Tuple)
		}
	}
	for _, class := range d.Classes() {
		for _, e := range d.Deletes(class) {
			route(class, e, true)
		}
		for _, e := range d.Inserts(class) {
			route(class, e, false)
		}
	}
	return subs
}

// rebalance splits oversized multi-class shard tasks into per-class
// tasks, so one hot shard doesn't serialize the tail of the batch
// behind a single worker. Implementations lock their per-shard derived
// state, so two same-shard tasks on different workers contend but stay
// correct.
func (e *Engine) rebalance(tasks []shardTask) []shardTask {
	if len(tasks) < 2 {
		return tasks
	}
	total := 0
	for _, t := range tasks {
		total += t.sub.Tuples()
	}
	threshold := 2 * total / len(tasks)
	out := make([]shardTask, 0, len(tasks))
	for _, t := range tasks {
		classes := t.sub.Classes()
		if len(classes) < 2 || t.sub.Tuples() <= threshold || t.sub.Tuples() < 8 {
			out = append(out, t)
			continue
		}
		e.stats.Inc(metrics.ShardRebalances)
		for _, class := range classes {
			sub := relation.NewDelta()
			for _, en := range t.sub.Deletes(class) {
				sub.AddDelete(class, en.ID, en.Tuple)
			}
			for _, en := range t.sub.Inserts(class) {
				sub.AddInsert(class, en.ID, en.Tuple)
			}
			out = append(out, shardTask{shard: t.shard, class: class, sub: sub})
		}
	}
	return out
}

// workQueue is one worker's deque. The owner pops its own tail (LIFO
// keeps a worker on the cache-warm shard it was just maintaining);
// thieves steal from the head (FIFO takes the oldest, largest-grained
// work first).
type workQueue struct {
	mu    sync.Mutex
	tasks []shardTask
}

func (q *workQueue) popTail() (shardTask, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if n := len(q.tasks); n > 0 {
		t := q.tasks[n-1]
		q.tasks = q.tasks[:n-1]
		return t, true
	}
	return shardTask{}, false
}

func (q *workQueue) stealHead() (shardTask, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.tasks) > 0 {
		t := q.tasks[0]
		q.tasks = q.tasks[1:]
		return t, true
	}
	return shardTask{}, false
}

// runShardTasks drives one phase: tasks are dealt round-robin onto the
// workers' queues and executed to completion — the phase barrier is the
// return. The first error (lowest shard, then class, for run-to-run
// stability) is returned; a worker panic is re-raised in the caller so
// the engine's batch panic containment sees it.
func (e *Engine) runShardTasks(phase string, workers int, tasks []shardTask, run func(shardTask) error) error {
	if workers > len(tasks) {
		workers = len(tasks)
	}
	if workers <= 1 {
		var firstErr error
		for _, t := range tasks {
			e.execShardTask(phase, -1, t, run, &firstErr)
		}
		return firstErr
	}
	queues := make([]*workQueue, workers)
	for i := range queues {
		queues[i] = &workQueue{}
	}
	for i, t := range tasks {
		q := queues[i%workers]
		q.tasks = append(q.tasks, t)
	}
	var (
		mu       sync.Mutex
		errs     []taskErr
		panicked any
		hasPanic bool
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(wid int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					mu.Lock()
					if !hasPanic {
						hasPanic, panicked = true, r
					}
					mu.Unlock()
				}
			}()
			for {
				t, ok := queues[wid].popTail()
				if !ok {
					for off := 1; off < workers; off++ {
						if t, ok = queues[(wid+off)%workers].stealHead(); ok {
							e.stats.Inc(metrics.ShardSteals)
							break
						}
					}
				}
				if !ok {
					return
				}
				var err error
				e.execShardTask(phase, wid, t, run, &err)
				if err != nil {
					mu.Lock()
					errs = append(errs, taskErr{t.shard, t.class, err})
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	if hasPanic {
		panic(panicked)
	}
	return firstTaskErr(errs)
}

type taskErr struct {
	shard int
	class string
	err   error
}

func firstTaskErr(errs []taskErr) error {
	if len(errs) == 0 {
		return nil
	}
	sort.Slice(errs, func(i, j int) bool {
		if errs[i].shard != errs[j].shard {
			return errs[i].shard < errs[j].shard
		}
		return errs[i].class < errs[j].class
	})
	return errs[0].err
}

// execShardTask runs one task, counting it and emitting its trace
// event. wid is -1 on the inline (single-worker) path.
func (e *Engine) execShardTask(phase string, wid int, t shardTask, run func(shardTask) error, errOut *error) {
	e.stats.Inc(metrics.ShardMaintains)
	t0 := e.tr.Now()
	err := run(t)
	if e.tr.Enabled() {
		extra := phase
		if wid >= 0 {
			extra = phase + " w" + strconv.Itoa(wid)
		}
		e.tr.Emit(trace.Event{
			Kind: trace.KindShardMaintain, At: t0, Dur: e.tr.Now() - t0,
			CE: -1, Class: t.class, ID: uint64(t.shard), Count: int64(t.sub.Tuples()), Extra: extra,
		})
	}
	if err != nil && *errOut == nil {
		*errOut = err
	}
}

// maintainDelta runs match maintenance for one batch delta: the
// parallel two-phase path when the matcher is Shardable and the catalog
// is sharded, the classic serial path otherwise.
func (e *Engine) maintainDelta(delta *relation.Delta) error {
	sm, shardable := e.matcher.(match.Shardable)
	space := e.db.ShardSpace()
	if !shardable || space <= 1 || delta.Empty() {
		return match.ApplyDelta(e.matcher, delta)
	}
	workers := e.shardWorkers(space)
	if workers <= 1 {
		return match.ApplyDelta(e.matcher, delta)
	}
	e.stats.Max(metrics.ShardCount, int64(space))
	subs := splitDelta(e.db, delta, space)
	tasks := make([]shardTask, 0, len(subs))
	for s, sub := range subs {
		if sub != nil && !sub.Empty() {
			tasks = append(tasks, shardTask{shard: s, sub: sub})
		}
	}
	if len(tasks) == 0 {
		return nil
	}
	if len(tasks) > 1 {
		e.stats.Inc(metrics.CrossShardTxns)
	}
	tasks = e.rebalance(tasks)

	// Two phases with a barrier between them: all maintenance completes
	// before any detection starts, so cross-shard joins are never missed
	// (see match.Shardable).
	mark := e.cs.Sequence()
	err := e.runShardTasks("maintain", workers, tasks, func(t shardTask) error { return sm.ShardMaintain(t.sub) })
	if err == nil {
		err = e.runShardTasks("detect", workers, tasks, func(t shardTask) error { return sm.ShardDetect(t.sub) })
	}
	// Concurrent workers race to insert instantiations; re-sequencing
	// the batch's additions in sorted-key order keeps recency-based
	// selection deterministic and identical to an unsharded run.
	e.cs.Canonicalize(mark)
	return err
}
