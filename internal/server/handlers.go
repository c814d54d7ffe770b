package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strconv"
	"time"

	"prodsys"
	"prodsys/internal/metrics"
	"prodsys/internal/replica"
)

// routes mounts every endpoint. Mutating endpoints (batch, run, quel,
// audit, promote) pass through admission control; cheap snapshot reads
// (wm, plans, metrics, health) bypass it so observability survives
// overload, and the replication feed bypasses it because it is a
// long-lived stream, not a unit of work.
func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/batch", s.admitted(s.handleBatch))
	s.mux.HandleFunc("POST /v1/run", s.admitted(s.handleRun))
	s.mux.HandleFunc("POST /v1/quel", s.admitted(s.handleQuel))
	s.mux.HandleFunc("POST /v1/audit", s.admitted(s.handleAudit))
	s.mux.HandleFunc("POST /v1/promote", s.admitted(s.handlePromote))
	s.mux.HandleFunc("GET /v1/wal", s.handleWALFeed)
	s.mux.HandleFunc("GET /v1/replication", s.handleReplication)
	s.mux.HandleFunc("GET /v1/conflicts", s.handleConflicts)
	s.mux.HandleFunc("GET /v1/wm", s.handleWM)
	s.mux.HandleFunc("GET /v1/plans", s.handlePlans)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/recovery", s.handleRecovery)
	s.mux.HandleFunc("GET /metricsz", s.handleMetricsText)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
}

// errorBody is the JSON shape of every non-2xx response.
type errorBody struct {
	Error      string `json:"error"`
	ReadOnly   bool   `json:"read_only,omitempty"`
	Draining   bool   `json:"draining,omitempty"`
	Replica    bool   `json:"replica,omitempty"`
	Primary    string `json:"primary,omitempty"`
	StaleEpoch bool   `json:"stale_epoch,omitempty"`
	Epoch      uint64 `json:"epoch,omitempty"`
}

// retryAfter emits jittered Retry-After headers: the coarse standard
// header in whole seconds plus Retry-After-Ms with ±50% jitter, so a
// fleet of shed clients does not come back in one synchronized
// stampede.
func retryAfter(w http.ResponseWriter, base time.Duration) {
	ms := base.Milliseconds()
	jittered := ms/2 + rand.Int63n(ms+1)
	w.Header().Set("Retry-After", strconv.FormatInt((jittered+999)/1000, 10))
	w.Header().Set("Retry-After-Ms", strconv.FormatInt(jittered, 10))
}

// writeErr maps an error to its HTTP status per the shedding contract:
// overload → 429 + jittered Retry-After, drain/read-only/closed → 503,
// replica mode → 503 naming the primary, deadline → 504, caller
// mistakes → 400/404, everything else → 500.
func (s *Server) writeErr(w http.ResponseWriter, err error) {
	body := errorBody{Error: err.Error()}
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrOverloaded):
		status = http.StatusTooManyRequests
		retryAfter(w, time.Second)
	case errors.Is(err, ErrDraining):
		status = http.StatusServiceUnavailable
		retryAfter(w, 5*time.Second)
		body.Draining = true
	case errors.Is(err, prodsys.ErrReplica):
		status = http.StatusServiceUnavailable
		body.Replica = true
		body.Primary = s.sys.ReplicaOf()
	case errors.Is(err, prodsys.ErrReadOnly):
		status = http.StatusServiceUnavailable
		body.ReadOnly = true
	case errors.Is(err, prodsys.ErrClosed):
		status = http.StatusServiceUnavailable
	case errors.Is(err, prodsys.ErrNotReplica), errors.Is(err, prodsys.ErrPromotionGate):
		status = http.StatusConflict
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		status = http.StatusGatewayTimeout
	case errors.Is(err, prodsys.ErrUnknownClass), errors.Is(err, prodsys.ErrUnknownRule):
		status = http.StatusNotFound
	case errors.Is(err, prodsys.ErrArity):
		status = http.StatusBadRequest
	}
	writeJSON(w, status, body)
}

// clientID identifies the caller for fair queueing: the X-Client-ID
// header when present, else the remote address host.
func clientID(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// checkFence enforces stale-epoch fencing on mutating requests: a
// request tagged with X-Prodsys-Epoch is rejected with 409 unless the
// tag matches the live WAL epoch. A resurrected old primary whose
// clients moved to a promoted replica carries the new epoch in its
// requests and so fences every write against the stale node.
func (s *Server) checkFence(w http.ResponseWriter, r *http.Request) bool {
	tag := r.Header.Get("X-Prodsys-Epoch")
	if tag == "" {
		return true
	}
	want, err := strconv.ParseUint(tag, 10, 64)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("bad X-Prodsys-Epoch %q", tag)})
		return false
	}
	epoch, _, ok := s.sys.WALPosition()
	if !ok || epoch != want {
		s.stats.Inc(metrics.FencedWrites)
		writeJSON(w, http.StatusConflict, errorBody{
			Error:      fmt.Sprintf("stale epoch: request fenced at %d, log at %d", want, epoch),
			StaleEpoch: true,
			Epoch:      epoch,
		})
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// admitted wraps a handler with epoch fencing, admission control, and
// the per-request deadline: acquire a slot (or shed), run under a
// context the engine honors mid-transaction, release.
func (s *Server) admitted(h func(http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.checkFence(w, r) {
			return
		}
		release, err := s.acquire(r.Context(), clientID(r))
		if err != nil {
			s.writeErr(w, err)
			return
		}
		defer release()
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		h(w, r.WithContext(ctx))
	}
}

// batchOp is one operation of a /v1/batch request.
type batchOp struct {
	Op     string `json:"op"` // "assert" | "retract"
	Class  string `json:"class"`
	Values []any  `json:"values,omitempty"` // assert: attribute values in schema order
	ID     uint64 `json:"id,omitempty"`     // retract: tuple ID
}

type batchRequest struct {
	Ops []batchOp `json:"ops"`
}

type batchResponse struct {
	// IDs are the tuple IDs minted for the batch's assertions, in
	// request order.
	IDs []uint64 `json:"ids"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if err := decodeJSON(r, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	if len(req.Ops) == 0 {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "empty batch"})
		return
	}
	b := s.sys.Batch()
	for i, op := range req.Ops {
		switch op.Op {
		case "assert":
			b.Assert(op.Class, decodedValues(op.Values)...)
		case "retract":
			b.Retract(op.Class, op.ID)
		default:
			writeJSON(w, http.StatusBadRequest, errorBody{
				Error: fmt.Sprintf("ops[%d]: unknown op %q (want assert or retract)", i, op.Op),
			})
			return
		}
	}
	ids, err := b.CommitContext(r.Context())
	if err != nil {
		s.writeErr(w, err)
		return
	}
	if ids == nil {
		ids = []uint64{}
	}
	writeJSON(w, http.StatusOK, batchResponse{IDs: ids})
}

type runRequest struct {
	// Concurrent fires §5.2 rounds (RunConcurrent); default is the
	// serial recognize-act cycle.
	Concurrent bool `json:"concurrent,omitempty"`
}

type runResponse struct {
	Firings int  `json:"firings"`
	Cycles  int  `json:"cycles"`
	Halted  bool `json:"halted"`
	Aborts  int  `json:"aborts,omitempty"`
	Panics  int  `json:"panics,omitempty"`
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req runRequest
	if err := decodeJSON(r, &req); err != nil && !errors.Is(err, errEmptyBody) {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	// One recognize-act loop at a time: concurrent /v1/run calls
	// serialize here rather than interleaving two runs.
	s.runMu.Lock()
	defer s.runMu.Unlock()
	var res prodsys.Result
	var err error
	if req.Concurrent {
		res, err = s.sys.RunConcurrentContext(r.Context())
	} else {
		res, err = s.sys.RunContext(r.Context())
	}
	if err != nil {
		s.writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, runResponse{
		Firings: res.Firings, Cycles: res.Cycles, Halted: res.Halted,
		Aborts: res.Aborts, Panics: res.Panics,
	})
}

type quelRequest struct {
	Stmt string `json:"stmt"`
}

type quelResponse struct {
	Columns  []string   `json:"columns,omitempty"`
	Rows     [][]string `json:"rows,omitempty"`
	Affected int        `json:"affected"`
	Fired    int        `json:"fired"`
}

func (s *Server) handleQuel(w http.ResponseWriter, r *http.Request) {
	var req quelRequest
	if err := decodeJSON(r, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	if req.Stmt == "" {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "empty stmt"})
		return
	}
	// QUEL data changes run triggers to quiescence — an executor run —
	// and the interpreter keeps session state (range declarations), so
	// statements serialize with /v1/run rather than interleaving.
	s.runMu.Lock()
	res, err := s.sys.Quel(req.Stmt)
	s.runMu.Unlock()
	if err != nil {
		s.writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, quelResponse{
		Columns: res.Columns, Rows: res.Rows, Affected: res.Affected, Fired: res.Fired,
	})
}

type auditRequest struct {
	MaxRules int  `json:"max_rules,omitempty"`
	Repair   bool `json:"repair,omitempty"`
}

type auditResponse struct {
	Matcher      string   `json:"matcher"`
	RulesChecked int      `json:"rules_checked"`
	Sampled      bool     `json:"sampled"`
	Clean        bool     `json:"clean"`
	Divergences  []string `json:"divergences,omitempty"`
	Repaired     int      `json:"repaired"`
	Rebuilt      bool     `json:"rebuilt"`
}

func (s *Server) handleAudit(w http.ResponseWriter, r *http.Request) {
	var req auditRequest
	if err := decodeJSON(r, &req); err != nil && !errors.Is(err, errEmptyBody) {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	rep, err := s.sys.Audit(prodsys.AuditOptions{MaxRules: req.MaxRules, Repair: req.Repair})
	if err != nil {
		s.writeErr(w, err)
		return
	}
	resp := auditResponse{
		Matcher: rep.Matcher, RulesChecked: rep.RulesChecked, Sampled: rep.Sampled,
		Clean: rep.Clean(), Repaired: rep.Repaired, Rebuilt: rep.Rebuilt,
	}
	for _, d := range rep.Divergences {
		resp.Divergences = append(resp.Divergences, d.String())
	}
	writeJSON(w, http.StatusOK, resp)
}

type wmResponse struct {
	Classes map[string]int `json:"classes,omitempty"`
	Class   string         `json:"class,omitempty"`
	Tuples  []string       `json:"tuples,omitempty"`
	Count   int            `json:"count"`
}

func (s *Server) handleWM(w http.ResponseWriter, r *http.Request) {
	class := r.URL.Query().Get("class")
	if class == "" {
		resp := wmResponse{Classes: map[string]int{}}
		for _, c := range s.sys.Classes() {
			n := len(s.sys.WMClass(c))
			resp.Classes[c] = n
			resp.Count += n
		}
		writeJSON(w, http.StatusOK, resp)
		return
	}
	tuples := s.sys.WMClass(class)
	writeJSON(w, http.StatusOK, wmResponse{Class: class, Tuples: tuples, Count: len(tuples)})
}

type planResponse struct {
	Rule  string   `json:"rule"`
	Plans []string `json:"plans"`
}

func (s *Server) handlePlans(w http.ResponseWriter, r *http.Request) {
	rule := r.URL.Query().Get("rule")
	if rule == "" {
		writeJSON(w, http.StatusOK, struct {
			Rules []string `json:"rules"`
		}{Rules: s.sys.RuleNames()})
		return
	}
	plans, err := s.sys.Plans(rule)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	resp := planResponse{Rule: rule}
	for _, p := range plans {
		resp.Plans = append(resp.Plans, p.String())
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.sys.Metrics())
}

func (s *Server) handleMetricsText(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, s.sys.Metrics().String())
}

type recoveryResponse struct {
	Recovered  bool  `json:"recovered"`
	Checkpoint bool  `json:"checkpoint"`
	Tuples     int   `json:"tuples"`
	Txns       int   `json:"txns"`
	Ops        int   `json:"ops"`
	TornTail   bool  `json:"torn_tail"`
	ElapsedNS  int64 `json:"elapsed_ns"`
}

func (s *Server) handleRecovery(w http.ResponseWriter, r *http.Request) {
	rec := s.sys.Recovery()
	writeJSON(w, http.StatusOK, recoveryResponse{
		Recovered: rec.Recovered, Checkpoint: rec.Checkpoint, Tuples: rec.Tuples,
		Txns: rec.Txns, Ops: rec.Ops, TornTail: rec.TornTail,
		ElapsedNS: rec.Elapsed.Nanoseconds(),
	})
}

// handleWALFeed streams the WAL to a replica (internal/replica
// protocol). Long-lived; ends on client disconnect or drain.
func (s *Server) handleWALFeed(w http.ResponseWriter, r *http.Request) {
	replica.ServeFeed(w, r, replica.FeedConfig{
		Log:       s.sys.WALLog(),
		Stats:     s.stats,
		Poll:      s.cfg.FeedPoll,
		Heartbeat: s.cfg.FeedHeartbeat,
		Done:      s.drainCh,
	})
}

type promoteResponse struct {
	Promoted     bool     `json:"promoted"`
	Epoch        uint64   `json:"epoch"`
	Matcher      string   `json:"matcher,omitempty"`
	RulesChecked int      `json:"rules_checked"`
	Divergences  []string `json:"divergences,omitempty"`
}

// handlePromote turns a replica into a primary: stop the feed client,
// truncate the mirrored log to its last complete committed unit, pass
// the full-audit promotion gate, bump the epoch (the fencing token),
// open writes. A failed gate leaves the node a replica and returns 409
// with the divergences.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	if !s.sys.IsReplica() {
		s.writeErr(w, prodsys.ErrNotReplica)
		return
	}
	if s.cfg.StopReplication != nil {
		s.cfg.StopReplication()
	}
	rep, err := s.sys.Promote()
	resp := promoteResponse{Promoted: err == nil}
	if epoch, _, ok := s.sys.WALPosition(); ok {
		resp.Epoch = epoch
	}
	if rep != nil {
		resp.Matcher = rep.Matcher
		resp.RulesChecked = rep.RulesChecked
		for _, d := range rep.Divergences {
			resp.Divergences = append(resp.Divergences, d.String())
		}
	}
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, prodsys.ErrPromotionGate) || errors.Is(err, prodsys.ErrNotReplica) {
			status = http.StatusConflict
		}
		writeJSON(w, status, struct {
			promoteResponse
			Error string `json:"error"`
		}{resp, err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

type replicationResponse struct {
	Role         string `json:"role"` // "primary" | "replica"
	Primary      string `json:"primary,omitempty"`
	Epoch        uint64 `json:"epoch"`
	Offset       int64  `json:"offset"`
	LagBytes     int64  `json:"lag_bytes"`
	TxnsApplied  int64  `json:"txns_applied"`
	Snapshots    int64  `json:"snapshots"`
	FeedsServed  int64  `json:"feeds_served"`
	Promotions   int64  `json:"promotions"`
	FencedWrites int64  `json:"fenced_writes"`
}

// handleReplication reports the node's replication state: role, feed
// cursor, and lag (meaningful on a replica).
func (s *Server) handleReplication(w http.ResponseWriter, r *http.Request) {
	epoch, off, _ := s.sys.WALPosition()
	rs := s.sys.Metrics().Replication
	resp := replicationResponse{
		Role: "primary", Epoch: epoch, Offset: off,
		LagBytes: rs.LagBytes, TxnsApplied: rs.TxnsApplied, Snapshots: rs.Snapshots,
		FeedsServed: rs.FeedsServed, Promotions: rs.Promotions, FencedWrites: rs.FencedWrites,
	}
	if s.sys.IsReplica() {
		resp.Role = "replica"
		resp.Primary = s.sys.ReplicaOf()
	}
	writeJSON(w, http.StatusOK, resp)
}

type conflictsResponse struct {
	Keys  []string `json:"keys"`
	Count int      `json:"count"`
}

// handleConflicts returns the conflict set's instantiation keys in
// sorted order — the byte-comparable fingerprint the failover drill
// checks between a promoted replica and its re-synced peer.
func (s *Server) handleConflicts(w http.ResponseWriter, r *http.Request) {
	keys := s.sys.ConflictKeys()
	if keys == nil {
		keys = []string{}
	}
	sort.Strings(keys)
	writeJSON(w, http.StatusOK, conflictsResponse{Keys: keys, Count: len(keys)})
}

type healthResponse struct {
	Status   string `json:"status"` // "serving" | "read_only" | "draining"
	ReadOnly bool   `json:"read_only"`
	Draining bool   `json:"draining"`
	Cause    string `json:"cause,omitempty"`
	UptimeNS int64  `json:"uptime_ns"`
}

// handleHealthz is liveness: 200 as long as the process serves
// queries — including read-only degraded mode, where the whole point
// is that query service stays up.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := healthResponse{Status: "serving", UptimeNS: time.Since(s.startedAt).Nanoseconds()}
	if s.sys.ReadOnly() {
		resp.Status = "read_only"
		resp.ReadOnly = true
		if c := s.sys.ReadOnlyCause(); c != nil {
			resp.Cause = c.Error()
		}
	}
	if s.draining.Load() {
		resp.Status = "draining"
		resp.Draining = true
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleReadyz is readiness: 503 once the system can no longer accept
// writes (read-only or draining), so load balancers steer traffic away
// while healthz keeps the process alive.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() || s.sys.ReadOnly() {
		s.handleHealthzStatus(w, http.StatusServiceUnavailable)
		return
	}
	s.handleHealthzStatus(w, http.StatusOK)
}

func (s *Server) handleHealthzStatus(w http.ResponseWriter, status int) {
	resp := healthResponse{Status: "serving", UptimeNS: time.Since(s.startedAt).Nanoseconds()}
	if s.sys.ReadOnly() {
		resp.Status = "read_only"
		resp.ReadOnly = true
	}
	if s.draining.Load() {
		resp.Status = "draining"
		resp.Draining = true
	}
	writeJSON(w, status, resp)
}

// errEmptyBody distinguishes "no body" (fine for request types whose
// zero value is a valid request) from malformed JSON.
var errEmptyBody = errors.New("server: empty request body")

// decodeJSON decodes a request body with UseNumber so integer values
// survive as int64 rather than drifting through float64.
func decodeJSON(r *http.Request, v any) error {
	if r.Body == nil {
		return errEmptyBody
	}
	dec := json.NewDecoder(r.Body)
	dec.UseNumber()
	if err := dec.Decode(v); err != nil {
		if errors.Is(err, io.EOF) {
			return errEmptyBody
		}
		return fmt.Errorf("decode request: %w", err)
	}
	return nil
}

// decodedValues converts JSON-decoded values into the types toValue
// accepts: json.Number becomes int64 when integral, float64 otherwise;
// strings pass through as symbols.
func decodedValues(in []any) []any {
	out := make([]any, len(in))
	for i, v := range in {
		switch x := v.(type) {
		case json.Number:
			if n, err := strconv.ParseInt(string(x), 10, 64); err == nil {
				out[i] = n
			} else if f, err := x.Float64(); err == nil {
				out[i] = f
			} else {
				out[i] = string(x)
			}
		default:
			out[i] = v
		}
	}
	return out
}
