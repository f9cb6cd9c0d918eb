// Package server is the simulation-as-a-service layer: an HTTP/JSON
// session service over the public sim API. Designs compile once into a
// cross-user cache keyed by [sim.SourceHash]; each lease mints its own
// engine on open and closes it on release (bounded per design and per
// client with 429 backpressure, evicted after an idle TTL); and the
// Testbench DMI protocol of §6.2 is framed over the wire as batched
// multi-cycle command lists so one round-trip amortises over hundreds of
// simulated cycles.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"rteaal/internal/faultinject"
	"rteaal/internal/testbench"
	"rteaal/sim"
)

// The service's fixed bounds.
const (
	maxLanes              = 256       // lanes of one batch session
	maxCommandsPerRequest = 4096      // commands in one list
	maxCyclesPerCommand   = 1_000_000 // one command's cycle budget
	maxSourceBytes        = 8 << 20   // a POST /designs or /sessions/{id}/commands body
	maxLogEntries         = 4096      // a session's log; the oldest entries drop first
	drainRetryAfter       = "5"       // the Retry-After, in seconds, of a 503 while draining
)

// Config bounds the service. The zero value takes every default.
type Config struct {
	// CacheSize bounds the compiled-design LRU (default 16 designs).
	CacheSize int
	// PoolCap bounds each design's live scalar sessions (default 8);
	// batches are bounded by maxLanes and MaxSessionsPerClient instead.
	PoolCap int
	// SessionTTL evicts leases idle longer than this on Sweep
	// (default 5m).
	SessionTTL time.Duration
	// MaxSessionsPerClient bounds concurrent leases per client identity
	// (default 8).
	MaxSessionsPerClient int
	// RequestTimeout bounds any single request end to end (default 2m;
	// negative disables). Expiry surfaces as 504 with Kind "timeout".
	RequestTimeout time.Duration
	// ExecTimeout bounds one command list's execution (default 1m;
	// negative disables). An expired run stops at the next cancellation
	// check and answers 504 with the completed prefix — the engine state
	// the prefix produced is real and the session stays usable.
	ExecTimeout time.Duration
	// PoolWait, when positive, makes session creation wait up to this long
	// for a lease of a full design to release before answering 429
	// (default 0: fail fast).
	PoolWait time.Duration
	// Clock overrides time.Now for session TTLs (tests).
	Clock func() time.Time
}

func (c Config) withDefaults() Config {
	if c.CacheSize <= 0 {
		c.CacheSize = 16
	}
	if c.PoolCap <= 0 {
		c.PoolCap = 8
	}
	if c.SessionTTL <= 0 {
		c.SessionTTL = 5 * time.Minute
	}
	if c.MaxSessionsPerClient <= 0 {
		c.MaxSessionsPerClient = 8
	}
	switch {
	case c.RequestTimeout == 0:
		c.RequestTimeout = 2 * time.Minute
	case c.RequestTimeout < 0:
		c.RequestTimeout = 0
	}
	switch {
	case c.ExecTimeout == 0:
		c.ExecTimeout = time.Minute
	case c.ExecTimeout < 0:
		c.ExecTimeout = 0
	}
	if c.PoolWait < 0 {
		c.PoolWait = 0
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// Server is the session service. It is an http.Handler; mount it directly
// or behind a mux prefix.
type Server struct {
	cfg      Config
	cache    *designCache
	sessions *sessionRegistry
	metrics  *metrics
	mux      *http.ServeMux

	// draining gates new work during graceful shutdown. inflight counts
	// command lists in execution so Drain can wait them out; it is a
	// mutex-guarded counter rather than a WaitGroup because requests keep
	// arriving (and incrementing from zero) while Drain waits, which
	// WaitGroup forbids. idle is lazily created by Drain and closed by the
	// last exiting request.
	draining atomic.Bool
	execMu   sync.Mutex
	inflight int
	idle     chan struct{}
}

// execEnter joins the in-flight set. Call before checking the draining
// flag: a BeginDrain observed after the check still sees this request in
// Drain's wait.
func (s *Server) execEnter() {
	s.execMu.Lock()
	s.inflight++
	s.execMu.Unlock()
}

func (s *Server) execExit() {
	s.execMu.Lock()
	s.inflight--
	if s.inflight == 0 && s.idle != nil {
		close(s.idle)
		s.idle = nil
	}
	s.execMu.Unlock()
}

// New builds a Server from cfg (zero value for defaults).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		cache:    newDesignCache(cfg.CacheSize, cfg.PoolCap),
		sessions: newSessionRegistry(cfg.MaxSessionsPerClient, cfg.SessionTTL, cfg.Clock),
		metrics:  newMetrics(),
		mux:      http.NewServeMux(),
	}
	s.route("POST /designs", s.handleCompile)
	s.route("GET /designs/{hash}", s.handleDesignInfo)
	s.route("POST /designs/{hash}/sessions", s.handleCreateSession)
	s.route("POST /sessions/{id}/commands", s.handleCommands)
	s.route("GET /sessions/{id}/log", s.handleLog)
	s.route("DELETE /sessions/{id}", s.handleRelease)
	s.route("GET /healthz", s.handleHealth)
	s.route("GET /readyz", s.handleReady)
	s.route("GET /metrics", s.handleMetrics)
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// route registers a handler wrapped with the request deadline, a recovery
// boundary, and per-endpoint latency accounting under the route's pattern.
// The recovery here is the outermost net: panics escaping a handler (the
// exec and create paths have tighter boundaries that also quarantine)
// become typed 500s instead of killing the connection goroutine silently.
// http.ErrAbortHandler passes through — it is the deliberate
// kill-this-connection signal.
func (s *Server) route(pattern string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		if s.cfg.RequestTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		defer func() {
			if rec := recover(); rec != nil {
				if rec == http.ErrAbortHandler {
					s.metrics.observe(pattern, time.Since(start), true)
					panic(rec)
				}
				s.metrics.panicRecovered()
				if sw.status == 0 {
					writeErrorKind(sw, http.StatusInternalServerError, KindPanic,
						fmt.Errorf("server: internal panic: %v", rec))
				}
			}
			s.metrics.observe(pattern, time.Since(start), sw.status >= 400)
		}()
		h(sw, r)
	})
}

// BeginDrain puts the server into graceful shutdown: readiness fails and
// new work answers 503 with Retry-After while in-flight command lists run
// to completion. Idempotent; EndDrain reverses it (tests, aborted
// shutdowns).
func (s *Server) BeginDrain() { s.draining.Store(true) }

// EndDrain returns a draining server to service.
func (s *Server) EndDrain() { s.draining.Store(false) }

// Drain blocks until every in-flight command list has finished or ctx
// expires. Call BeginDrain first so no new work keeps the count up.
func (s *Server) Drain(ctx context.Context) error {
	s.execMu.Lock()
	if s.inflight == 0 {
		s.execMu.Unlock()
		return nil
	}
	if s.idle == nil {
		s.idle = make(chan struct{})
	}
	done := s.idle
	s.execMu.Unlock()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// rejectIfDraining answers 503 for new work during drain.
func (s *Server) rejectIfDraining(w http.ResponseWriter) bool {
	if !s.draining.Load() {
		return false
	}
	s.metrics.drainReject()
	w.Header().Set("Retry-After", drainRetryAfter)
	writeErrorKind(w, http.StatusServiceUnavailable, KindDraining,
		errors.New("server: draining; retry against another replica"))
	return true
}

// statusWriter captures the response status for metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Sweep runs one maintenance pass: evict leases idle past SessionTTL,
// closing their engines. Call it periodically (see cmd/rteaal-serve) or
// directly in tests with a fake Clock. It reports the evicted leases.
func (s *Server) Sweep() int { return s.sessions.reapExpired() }

// Close releases every lease, closing its engine.
func (s *Server) Close() { s.sessions.closeAll() }

// clientID identifies the requesting client for per-client session
// limits: the X-Client header when present, else the remote host.
func clientID(r *http.Request) string {
	if c := r.Header.Get("X-Client"); c != "" {
		return c
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // the connection is gone; nothing to do
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, ErrorResponse{Error: err.Error()})
}

// writeErrorKind answers a typed error (see the Kind* constants).
func writeErrorKind(w http.ResponseWriter, status int, kind string, err error) {
	writeJSON(w, status, ErrorResponse{Error: err.Error(), Kind: kind})
}

// decodeBody strictly decodes a JSON request body into v. An empty body
// leaves v at its zero value.
func decodeBody(r *http.Request, limit int64, v any) error {
	body, err := io.ReadAll(io.LimitReader(r.Body, limit+1))
	if err != nil {
		return fmt.Errorf("server: reading body: %w", err)
	}
	if int64(len(body)) > limit {
		return fmt.Errorf("server: body exceeds the %d-byte limit", limit)
	}
	if len(body) == 0 {
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("server: decoding body: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("server: trailing data after body")
	}
	return nil
}

// handleCompile serves POST /designs: hash the normalized source plus
// options, compile at most once across all clients, answer 201 for a
// fresh compile and 200 from cache. Failures are typed: a crashed compile
// answers 500 (kind "panic"), an expired deadline 504, and an ordinary
// compile error 422 — cached, so a repeat of the same source answers the
// same 422 at once — and none of them can wedge concurrent clients that
// joined the same single-flight compile.
func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	if s.rejectIfDraining(w) {
		return
	}
	var req CompileRequest
	if err := decodeBody(r, maxSourceBytes, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Source == "" {
		writeError(w, http.StatusBadRequest, errors.New("server: source is required"))
		return
	}
	opts, err := req.Options.SimOptions()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	hash := sim.SourceHash(req.Source, opts...)
	entry, cached, err := s.cache.getOrCompile(r.Context(), hash, func() (*sim.Design, error) {
		return sim.Compile(req.Source, opts...)
	})
	if err != nil {
		switch {
		case isPanicErr(err):
			s.metrics.panicRecovered()
			writeErrorKind(w, http.StatusInternalServerError, KindPanic, err)
		case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
			s.metrics.timedOut()
			writeErrorKind(w, http.StatusGatewayTimeout, KindTimeout, err)
		default:
			writeError(w, http.StatusUnprocessableEntity, err)
		}
		return
	}
	status := http.StatusCreated
	if cached {
		status = http.StatusOK
	}
	writeJSON(w, status, CompileResponse{DesignInfo: entry.info, Cached: cached})
}

// isPanicErr reports whether err carries a recovered panic.
func isPanicErr(err error) bool {
	_, ok := asPanicFault(err)
	return ok
}

// handleDesignInfo serves GET /designs/{hash}.
func (s *Server) handleDesignInfo(w http.ResponseWriter, r *http.Request) {
	entry, ok := s.cache.lookup(r.PathValue("hash"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("server: unknown design"))
		return
	}
	writeJSON(w, http.StatusOK, CompileResponse{DesignInfo: entry.info, Cached: true})
}

// handleCreateSession serves POST /designs/{hash}/sessions: lease a fresh
// session (or multi-lane batch) of a cached design. Saturation answers 429
// with Retry-After: 1, since capacity returns the moment any lease is
// released.
func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	if s.rejectIfDraining(w) {
		return
	}
	entry, ok := s.cache.lookup(r.PathValue("hash"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("server: unknown design"))
		return
	}
	var req CreateSessionRequest
	if err := decodeBody(r, 1<<16, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	l, err := s.sessions.create(r.Context(), entry, clientID(r), req.Lanes, s.cfg.PoolWait)
	switch {
	case err == nil:
	case errors.Is(err, errClientLimit), errors.Is(err, errDesignFull):
		w.Header().Set("Retry-After", "1")
		writeErrorKind(w, http.StatusTooManyRequests, KindBackpressure, err)
		return
	case isPanicErr(err):
		// Minting crashed; the reservation and the capacity slot were
		// already returned, so the design serves the next caller.
		s.metrics.panicRecovered()
		writeErrorKind(w, http.StatusInternalServerError, KindPanic, err)
		return
	default:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, SessionResponse{SessionID: l.id, Hash: entry.hash, Lanes: l.tb.Lanes()})
}

// handleCommands serves POST /sessions/{id}/commands: decode a batched
// wire command list, execute it in order on the lease's testbench, record
// the transaction log, and answer the outcomes. A failing command answers
// 422 with the completed prefix and the session stays usable; so do a
// deadline expiry (504, kind "timeout") and a concurrent DELETE (410,
// kind "canceled") — both stop at a cancellation check with the prefix's
// engine state intact. A panic during execution quarantines the lease:
// its engine is closed, never run again, and the answer is a typed 500.
func (s *Server) handleCommands(w http.ResponseWriter, r *http.Request) {
	s.execEnter()
	defer s.execExit()
	if s.rejectIfDraining(w) {
		return
	}
	l, ok := s.sessions.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("server: unknown session"))
		return
	}
	var req CommandsRequest
	if err := decodeBody(r, maxSourceBytes, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	cmds, err := testbench.DecodeCommands(req.Commands, maxCommandsPerRequest)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	ctx := r.Context()
	if s.cfg.ExecTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.ExecTimeout)
		defer cancel()
	}

	l.mu.Lock()
	if l.gone {
		l.mu.Unlock()
		writeErrorKind(w, http.StatusGone, KindGone, errLeaseGone)
		return
	}
	// The testbench polls this probe before every engine run it hands
	// over, and caps those runs at kernel.CancelCheckCycles cycles while
	// it is installed: the exec deadline, a vanished client, and a
	// concurrent DELETE (l.abort) all stop a long run within that many
	// cycles instead of holding the engine for the rest of a megacycle
	// batch. The engines themselves poll nothing.
	l.tb.SetCancel(func() bool { return l.abort.Load() || ctx.Err() != nil })
	outcomes, cycles, execErr := runCommandsRecover(l.tb, cmds)
	l.tb.SetCancel(nil)

	if pf, isPanic := asPanicFault(execErr); isPanic {
		// Quarantine: the engine panicked mid-run, so its state cannot be
		// trusted. Release it while still holding l.mu, so no queued
		// command list runs on it, and unlink the lease.
		l.releaseLocked()
		l.mu.Unlock()
		s.sessions.forget(l)
		s.metrics.panicRecovered()
		writeErrorKind(w, http.StatusInternalServerError, KindPanic, pf)
		return
	}

	// Record the completed prefix: each entry stamped with the cycle at
	// which its command started, so a log replay reproduces the trace.
	at := l.tb.Cycle() - cycles
	for i, out := range outcomes {
		l.log = append(l.log, LogEntry{Cycle: at, Command: cmds[i], Outcome: out})
		at += out.Cycles
	}
	if excess := len(l.log) - maxLogEntries; excess > 0 {
		l.dropped += int64(excess)
		l.log = append(l.log[:0:0], l.log[excess:]...)
	}
	cycle := l.tb.Cycle()
	l.mu.Unlock()

	s.metrics.addWork(cycles, len(outcomes))
	if ferr := faultinject.Fire(faultinject.ConnDrop); ferr != nil {
		// Injected transport fault: the work above is done and logged, but
		// the client never hears about it — exactly the ambiguity the
		// client-side retry classifier must treat as non-idempotent.
		panic(http.ErrAbortHandler)
	}
	resp := CommandsResponse{Outcomes: outcomes, Cycle: cycle}
	switch {
	case execErr == nil:
		writeJSON(w, http.StatusOK, resp)
	case errors.Is(execErr, sim.ErrRunCanceled):
		resp.Error = execErr.Error()
		if ctx.Err() != nil {
			s.metrics.timedOut()
			resp.Kind = KindTimeout
			writeJSON(w, http.StatusGatewayTimeout, resp)
		} else {
			// A concurrent DELETE aborted the run; release is waiting on
			// l.mu to close the engine.
			s.metrics.runCanceled()
			resp.Kind = KindCanceled
			writeJSON(w, http.StatusGone, resp)
		}
	default:
		resp.Error = execErr.Error()
		writeJSON(w, http.StatusUnprocessableEntity, resp)
	}
}

// handleLog serves GET /sessions/{id}/log: the recorded, replayable
// transaction log.
func (s *Server) handleLog(w http.ResponseWriter, r *http.Request) {
	l, ok := s.sessions.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("server: unknown session"))
		return
	}
	l.mu.Lock()
	entries := make([]LogEntry, len(l.log))
	copy(entries, l.log)
	dropped := l.dropped
	l.mu.Unlock()
	writeJSON(w, http.StatusOK, LogResponse{SessionID: l.id, Dropped: dropped, Entries: entries})
}

// handleRelease serves DELETE /sessions/{id}.
func (s *Server) handleRelease(w http.ResponseWriter, r *http.Request) {
	if !s.sessions.release(r.PathValue("id")) {
		writeError(w, http.StatusNotFound, errors.New("server: unknown session"))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleHealth serves GET /healthz: liveness only. It answers 200 for as
// long as the process serves HTTP — including during drain — so an
// orchestrator does not kill a pod that is busy finishing its work.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	sm := s.sessions.stats()
	writeJSON(w, http.StatusOK, HealthResponse{Status: "ok", Designs: s.cache.designs(), Sessions: sm.Live})
}

// handleReady serves GET /readyz: readiness. 503 while draining (new work
// is being rejected), so load balancers route around this replica without
// killing it.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	resp := ReadyResponse{Status: "ready", Draining: s.draining.Load(), Designs: s.cache.designs()}
	if resp.Draining {
		resp.Status = "draining"
		w.Header().Set("Retry-After", drainRetryAfter)
		writeJSON(w, http.StatusServiceUnavailable, resp)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleMetrics serves GET /metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	cm, pools := s.cache.stats()
	work, fault, eps := s.metrics.snapshot()
	fault.SessionsQuarantined = s.sessions.quarantineCount()
	fault.Draining = s.draining.Load()
	writeJSON(w, http.StatusOK, MetricsResponse{
		Cache:     cm,
		Sessions:  s.sessions.stats(),
		Work:      work,
		Fault:     fault,
		Pools:     pools,
		Endpoints: eps,
	})
}
