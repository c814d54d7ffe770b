// Package server is the network front end of the production system: an
// HTTP/JSON surface over the transactional API (Batch, Run, Quel,
// Metrics, Plans, Audit) with robustness as the design center —
// admission control with bounded queueing and typed overload shedding,
// per-request deadlines propagated as contexts into the engine, WAL
// group commit underneath (wal.SyncGroup), read-only degradation on
// disk failure, and graceful drain on shutdown.
//
// The paper's §5 scheduler assumes a long-lived system serving many
// concurrent transactions; this package supplies the missing operating
// mode: many clients, bounded resource use, and defined behavior under
// overload, disk failure, and shutdown.
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"prodsys"
	"prodsys/internal/metrics"
)

// ErrOverloaded marks a request shed by admission control: the
// in-flight limit and the wait queue are both full. Mapped to HTTP 429
// with a Retry-After header. Test with errors.Is.
var ErrOverloaded = errors.New("server: overloaded")

// ErrDraining marks a request refused because the server is draining:
// admissions stopped, in-flight work finishing. Mapped to HTTP 503.
// Test with errors.Is.
var ErrDraining = errors.New("server: draining")

// Config tunes a Server.
type Config struct {
	// MaxInFlight bounds concurrently executing requests (the admission
	// semaphore); 0 means 32.
	MaxInFlight int
	// MaxQueue bounds requests waiting for an execution slot; an
	// arrival finding the queue full is shed with ErrOverloaded (429).
	// 0 means 4 × MaxInFlight.
	MaxQueue int
	// RequestTimeout is the per-request deadline propagated as a
	// context into the engine; 0 means 10s.
	RequestTimeout time.Duration
	// DrainTimeout bounds how long Drain waits for in-flight requests
	// before checkpointing and closing anyway; 0 means 10s.
	DrainTimeout time.Duration
	// StopReplication, when set on a replica, stops the feed client
	// (blocking until no apply is in flight) before /v1/promote runs the
	// promotion sequence. psserve wires this to its replica.Client.
	StopReplication func()
	// FeedPoll and FeedHeartbeat tune the /v1/wal replication feed; zero
	// means the replica package defaults (50ms / 500ms).
	FeedPoll      time.Duration
	FeedHeartbeat time.Duration
}

func (c *Config) fill() {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 32
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxInFlight
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
}

// Server wraps a loaded System with admission control and the HTTP
// surface. Build with New, mount Handler, stop with Drain.
type Server struct {
	sys   *prodsys.System
	cfg   Config
	stats *metrics.Set
	mux   *http.ServeMux

	// Admission control: fq is the per-client fair queue (execution
	// slots plus a bounded, round-robin wait queue). drainCh closes when
	// draining flips, so queued waiters fail fast instead of outliving
	// the drain.
	fq       *fairQueue
	draining atomic.Bool
	drainCh  chan struct{}

	// admitMu makes the draining-check-then-Add sequence atomic against
	// Drain's Wait, closing the classic Add-after-Wait race.
	admitMu sync.Mutex
	wg      sync.WaitGroup

	// runMu serializes Run/RunConcurrent: the recognize-act loop is a
	// one-at-a-time machine; batches and queries stay concurrent.
	runMu sync.Mutex

	startedAt time.Time
	drainedAt atomic.Int64 // unix nanos when Drain finished, 0 while serving
}

// New builds a Server over a loaded system. The system should have been
// opened with WALSyncGroup for commit coalescing across clients, but
// every sync mode works.
func New(sys *prodsys.System, cfg Config) *Server {
	cfg.fill()
	s := &Server{
		sys:       sys,
		cfg:       cfg,
		stats:     sys.CounterSet(),
		fq:        newFairQueue(cfg.MaxInFlight, cfg.MaxQueue),
		drainCh:   make(chan struct{}),
		startedAt: time.Now(),
	}
	s.mux = http.NewServeMux()
	s.routes()
	return s
}

// Handler returns the HTTP handler serving every endpoint.
func (s *Server) Handler() http.Handler { return s.mux }

// System exposes the wrapped system (for harnesses and tests).
func (s *Server) System() *prodsys.System { return s.sys }

// Draining reports whether Drain has started.
func (s *Server) Draining() bool { return s.draining.Load() }

// acquire admits one request from the named client: it claims a fair
// wait-queue position (round-robin across clients, so one hot client
// cannot starve the rest), then an execution slot, honoring ctx and
// drain. The returned release must be called exactly once when the
// request finishes.
func (s *Server) acquire(ctx context.Context, client string) (release func(), err error) {
	if s.draining.Load() {
		return nil, ErrDraining
	}
	w, err := s.fq.enqueue(client, s.stats)
	if err != nil {
		s.stats.Inc(metrics.ServerRejected)
		return nil, err
	}
	if w != nil {
		select {
		case <-w.ready:
		case <-ctx.Done():
			if !s.fq.abandon(w) {
				// Granted while we were giving up: we own a slot, return it.
				s.fq.release()
			}
			s.stats.Inc(metrics.ServerRejected)
			return nil, fmt.Errorf("%w: queue wait: %w", ErrOverloaded, ctx.Err())
		case <-s.drainCh:
			if !s.fq.abandon(w) {
				s.fq.release()
			}
			return nil, ErrDraining
		}
	}
	s.admitMu.Lock()
	if s.draining.Load() {
		s.admitMu.Unlock()
		s.fq.release()
		return nil, ErrDraining
	}
	s.wg.Add(1)
	s.admitMu.Unlock()
	s.stats.Inc(metrics.ServerAdmitted)
	return func() {
		s.fq.release()
		if s.draining.Load() {
			s.stats.Inc(metrics.ServerDrained)
		}
		s.wg.Done()
	}, nil
}

// Drain performs the graceful shutdown sequence: stop admitting (new
// requests get 503, queued waiters are released refused), wait for
// in-flight transactions under the drain deadline, checkpoint the WAL,
// and close the system. Idempotent; concurrent callers all block until
// the first drain completes. Returns the system Close error, if any.
func (s *Server) Drain(ctx context.Context) error {
	if !s.draining.CompareAndSwap(false, true) {
		// Another drain is (or was) in flight: wait for in-flight work
		// and fall through to the idempotent Close.
		s.wg.Wait()
		return s.sys.Close()
	}
	close(s.drainCh)
	// Pair with acquire's admitMu section: any request that saw
	// draining=false has finished its wg.Add once we pass this lock, so
	// Wait below can never race an Add.
	s.admitMu.Lock()
	s.admitMu.Unlock() //nolint:staticcheck // empty critical section is the barrier

	deadline := s.cfg.DrainTimeout
	if d, ok := ctx.Deadline(); ok {
		if rem := time.Until(d); rem < deadline {
			deadline = rem
		}
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(deadline):
		// In-flight stragglers outlived the deadline; close anyway —
		// their commits either landed in the WAL already or will fail
		// with ErrClosed, never half-apply.
	case <-ctx.Done():
	}
	// Checkpoint compacts the log for the fastest possible next-boot
	// recovery; skipped when degraded (the log may be unwritable) and on
	// replicas (a local checkpoint would bump the epoch and break the
	// byte-for-byte mirror of the primary's log).
	if !s.sys.ReadOnly() && !s.sys.IsReplica() {
		_ = s.sys.Checkpoint()
	}
	err := s.sys.Close()
	s.drainedAt.Store(time.Now().UnixNano())
	return err
}
