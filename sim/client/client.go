// Package client is the Go client of the rteaal session service
// (internal/server, cmd/rteaal-serve): compile designs into the server's
// cross-user cache, lease sessions, and drive them with batched testbench
// command scripts — the same poke/peek/step/transact/handshake vocabulary
// [sim.Testbench] offers in-process, framed over HTTP so many simulated
// cycles ride on one round-trip.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"time"

	"rteaal/internal/server"
	"rteaal/internal/testbench"
)

// RetryPolicy shapes the client's automatic retries: capped exponential
// backoff with jitter, honoring the server's Retry-After on backpressure
// (429) and unavailability (503) answers. See [Client] for what is and is
// not retried.
type RetryPolicy struct {
	// MaxAttempts bounds total tries per call (first attempt included);
	// values below 1 behave as 1 (no retries).
	MaxAttempts int
	// BaseDelay is the first backoff step; each retry doubles it.
	BaseDelay time.Duration
	// MaxDelay caps every sleep — including a server Retry-After larger
	// than the client is willing to wait.
	MaxDelay time.Duration
	// Jitter spreads each sleep uniformly over ±Jitter (0.2 = ±20%) so
	// synchronized clients don't re-stampede a recovering server.
	Jitter float64
}

// DefaultRetryPolicy is the policy New installs: 4 attempts, 25ms base,
// 2s cap, ±20% jitter.
var DefaultRetryPolicy = RetryPolicy{
	MaxAttempts: 4,
	BaseDelay:   25 * time.Millisecond,
	MaxDelay:    2 * time.Second,
	Jitter:      0.2,
}

// Client talks to one rteaal-serve endpoint.
//
// Calls retry automatically under the client's [RetryPolicy], with a
// classification that never repeats non-idempotent work:
//
//   - 429 and 503 answers are retried for every call — the server rejected
//     the work before doing any of it — sleeping at least the server's
//     Retry-After (capped by MaxDelay).
//   - Transport errors (connection refused, reset, dropped mid-response)
//     are retried only for calls that are safe to repeat: GETs, DELETEs,
//     and design compiles (content-addressed, so a duplicate is a cache
//     hit). Session creation and command execution are NOT retried on
//     transport errors: the server may have done the work, and repeating a
//     command list would advance the simulation twice.
//   - Every other status (404, 422, 500, 504, ...) is returned immediately.
type Client struct {
	base  string
	http  *http.Client
	id    string
	retry RetryPolicy
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the transport (default http.DefaultClient).
func WithHTTPClient(h *http.Client) Option { return func(c *Client) { c.http = h } }

// WithClientID sets the X-Client identity the server uses for per-client
// session limits (default: the connection's remote host).
func WithClientID(id string) Option { return func(c *Client) { c.id = id } }

// WithRetry substitutes the retry policy.
func WithRetry(p RetryPolicy) Option { return func(c *Client) { c.retry = p } }

// WithoutRetry disables automatic retries: every call maps to exactly one
// HTTP request and every failure surfaces immediately (tests, callers
// running their own retry loop).
func WithoutRetry() Option { return func(c *Client) { c.retry = RetryPolicy{MaxAttempts: 1} } }

// New builds a client for the service at base, e.g. "http://localhost:8382".
func New(base string, opts ...Option) *Client {
	c := &Client{base: strings.TrimRight(base, "/"), http: http.DefaultClient, retry: DefaultRetryPolicy}
	for _, o := range opts {
		o(c)
	}
	return c
}

// BaseURL reports the endpoint the client talks to.
func (c *Client) BaseURL() string { return c.base }

// APIError is a non-2xx answer from the service.
type APIError struct {
	Status  int
	Message string
	// Kind is the server's machine-readable failure class (the server
	// package's Kind* constants: "panic", "timeout", "draining", ...).
	Kind string
	// RetryAfter is the server's Retry-After hint, when it sent one.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("client: server answered %d: %s", e.Status, e.Message)
}

// do runs one JSON call with the client's retry policy. idem marks calls
// that are safe to repeat after a transport error; see [Client] for the
// classification. A nil out discards the body; a non-2xx status decodes
// the error envelope into an *APIError.
func (c *Client) do(ctx context.Context, method, path string, in, out any, idem bool) error {
	var data []byte
	if in != nil {
		var err error
		if data, err = json.Marshal(in); err != nil {
			return fmt.Errorf("client: encoding request: %w", err)
		}
	}
	attempts := max(c.retry.MaxAttempts, 1)
	for attempt := 1; ; attempt++ {
		err := c.doOnce(ctx, method, path, data, in != nil, out)
		if err == nil {
			return nil
		}
		retryAfter, ok := retryable(err, idem)
		if !ok || attempt >= attempts {
			return err
		}
		if c.backoff(ctx, attempt, retryAfter) != nil {
			return err // the caller's context expired mid-backoff
		}
	}
}

// retryable classifies one failure: may the call be repeated, and with
// what server-requested minimum delay?
func retryable(err error, idem bool) (time.Duration, bool) {
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		switch apiErr.Status {
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			// Backpressure and drain reject before any work runs: safe to
			// retry regardless of the call's idempotency.
			return apiErr.RetryAfter, true
		}
		return 0, false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return 0, false
	}
	// Transport error: the server may or may not have executed the work,
	// so only idempotent calls go again.
	return 0, idem
}

// backoff sleeps the attempt's capped, jittered exponential delay (at
// least retryAfter), or returns early with the context's error. The delay
// stops doubling once it reaches MaxDelay, or before the doubling would
// overflow, so no attempt count wraps it negative or to zero.
func (c *Client) backoff(ctx context.Context, attempt int, retryAfter time.Duration) error {
	d := c.retry.BaseDelay
	for i := 1; i < attempt && d > 0 && d <= math.MaxInt64/2; i++ {
		if c.retry.MaxDelay > 0 && d >= c.retry.MaxDelay {
			break
		}
		d <<= 1
	}
	if d < retryAfter {
		d = retryAfter
	}
	if c.retry.MaxDelay > 0 && d > c.retry.MaxDelay {
		d = c.retry.MaxDelay
	}
	if j := c.retry.Jitter; j > 0 && d > 0 {
		d = time.Duration(float64(d) * (1 + j*(2*rand.Float64()-1)))
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// doOnce runs exactly one HTTP round-trip.
func (c *Client) doOnce(ctx context.Context, method, path string, data []byte, hasBody bool, out any) error {
	var body io.Reader
	if hasBody {
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if hasBody {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.id != "" {
		req.Header.Set("X-Client", c.id)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var apiErr server.ErrorResponse
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		if json.Unmarshal(raw, &apiErr) != nil || apiErr.Error == "" {
			apiErr.Error = strings.TrimSpace(string(raw))
		}
		// A failed command batch still carries the completed prefix;
		// surface it through out alongside the error.
		if out != nil {
			json.Unmarshal(raw, out) //nolint:errcheck // best-effort partial body
		}
		return &APIError{
			Status:     resp.StatusCode,
			Message:    apiErr.Error,
			Kind:       apiErr.Kind,
			RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
		}
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("client: decoding response: %w", err)
	}
	return nil
}

// parseRetryAfter reads the delay-seconds form of Retry-After (the only
// form this server emits); anything else is no hint.
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(strings.TrimSpace(v))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// Compile posts FIRRTL source (plus compile options) and returns the
// design's cache entry. Posting a design the server already holds is
// answered from the cross-user cache without recompiling — which is also
// what makes this POST safe to retry on transport errors: a duplicate
// compile of the same content hash is a cache hit, not doubled work.
func (c *Client) Compile(ctx context.Context, source string, opts server.CompileOptions) (*server.CompileResponse, error) {
	var resp server.CompileResponse
	err := c.do(ctx, http.MethodPost, "/designs", server.CompileRequest{Source: source, Options: opts}, &resp, true)
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// Design fetches a cached design's description by hash.
func (c *Client) Design(ctx context.Context, hash string) (*server.CompileResponse, error) {
	var resp server.CompileResponse
	if err := c.do(ctx, http.MethodGet, "/designs/"+hash, nil, &resp, true); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Health fetches GET /healthz (liveness).
func (c *Client) Health(ctx context.Context) (*server.HealthResponse, error) {
	var resp server.HealthResponse
	if err := c.do(ctx, http.MethodGet, "/healthz", nil, &resp, true); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Ready fetches GET /readyz (readiness). A draining or degraded server
// answers 503, which surfaces as an *APIError after the retry budget.
func (c *Client) Ready(ctx context.Context) (*server.ReadyResponse, error) {
	var resp server.ReadyResponse
	if err := c.do(ctx, http.MethodGet, "/readyz", nil, &resp, true); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Metrics fetches GET /metrics.
func (c *Client) Metrics(ctx context.Context) (*server.MetricsResponse, error) {
	var resp server.MetricsResponse
	if err := c.do(ctx, http.MethodGet, "/metrics", nil, &resp, true); err != nil {
		return nil, err
	}
	return &resp, nil
}

// NewSession leases a session of a cached design: the server mints a fresh
// engine for it, a scalar session for lanes == 0 and a multi-lane batch for
// lanes > 0. Saturation surfaces as an *APIError with Status 429.
func (c *Client) NewSession(ctx context.Context, hash string, lanes int) (*Session, error) {
	var resp server.SessionResponse
	var in any
	if lanes != 0 {
		// Out-of-range values travel to the server for rejection rather
		// than being silently normalized here.
		in = server.CreateSessionRequest{Lanes: lanes}
	}
	if err := c.do(ctx, http.MethodPost, "/designs/"+hash+"/sessions", in, &resp, false); err != nil {
		return nil, err
	}
	return &Session{c: c, ID: resp.SessionID, Hash: resp.Hash, Lanes: resp.Lanes}, nil
}

// Session is one leased remote session.
type Session struct {
	c     *Client
	ID    string
	Hash  string
	Lanes int
}

// Do executes a batched command script on the session, in order, and
// returns the outcomes. On an execution failure the returned response
// still holds the completed prefix next to the *APIError. Command lists
// are never retried after a transport error — the server may already have
// simulated them, and repeating would advance the session twice — but
// 429/503 rejections (no work done) still back off and retry.
func (s *Session) Do(ctx context.Context, script *Script) (*server.CommandsResponse, error) {
	data, err := testbench.EncodeCommands(script.cmds)
	if err != nil {
		return nil, err
	}
	var resp server.CommandsResponse
	err = s.c.do(ctx, http.MethodPost, "/sessions/"+s.ID+"/commands",
		server.CommandsRequest{Commands: data}, &resp, false)
	if err != nil {
		return &resp, err
	}
	return &resp, nil
}

// Wait drives the remote session until cond accepts the named signal's
// value on the given lane, for at most maxCycles cycles, and returns the
// accepted value. The condition travels the wire as a single wait command:
// the server threads it into the engine's early-stop watch, so the session
// halts at the exact cycle the condition first holds — one round-trip,
// no chunked polling, no overshoot. A nil cond accepts the first sampled
// cycle. Timeout surfaces as the server's command error (*APIError); the
// budget is additionally subject to the server's per-command cycle policy.
func (s *Session) Wait(ctx context.Context, lane int, signal string, cond *testbench.Cond, maxCycles int) (uint64, error) {
	resp, err := s.Do(ctx, NewScript().WaitLane(lane, signal, cond, maxCycles))
	if err != nil {
		return 0, err
	}
	return resp.Outcomes[len(resp.Outcomes)-1].Value, nil
}

// Log fetches the session's recorded, replayable transaction log.
func (s *Session) Log(ctx context.Context) (*server.LogResponse, error) {
	var resp server.LogResponse
	if err := s.c.do(ctx, http.MethodGet, "/sessions/"+s.ID+"/log", nil, &resp, true); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Close releases the session; the server closes its engine. DELETE is
// idempotent on the server (a repeat answers 404), so transport errors
// retry.
func (s *Session) Close(ctx context.Context) error {
	return s.c.do(ctx, http.MethodDelete, "/sessions/"+s.ID, nil, nil, true)
}

// Script accumulates a batched command list. Methods append one command
// each and return the script for chaining:
//
//	resp, err := sess.Do(ctx, client.NewScript().
//		Poke("step", 3).
//		Step(16).
//		Peek("count"))
type Script struct {
	cmds []testbench.Command
}

// NewScript starts an empty command script.
func NewScript() *Script { return &Script{} }

// Len reports the number of accumulated commands.
func (b *Script) Len() int { return len(b.cmds) }

// Commands exposes the accumulated wire commands.
func (b *Script) Commands() []testbench.Command { return b.cmds }

// Add appends a raw wire command.
func (b *Script) Add(cmd testbench.Command) *Script {
	b.cmds = append(b.cmds, cmd)
	return b
}

// Poke drives a named input on lane 0.
func (b *Script) Poke(signal string, value uint64) *Script {
	return b.Add(testbench.Command{Op: testbench.OpPoke, Signal: signal, Value: value})
}

// PokeLane drives a named input on a batch lane.
func (b *Script) PokeLane(lane int, signal string, value uint64) *Script {
	return b.Add(testbench.Command{Op: testbench.OpPoke, Lane: lane, Signal: signal, Value: value})
}

// Peek samples a named signal on lane 0.
func (b *Script) Peek(signal string) *Script {
	return b.Add(testbench.Command{Op: testbench.OpPeek, Signal: signal})
}

// PeekLane samples a named signal on a batch lane.
func (b *Script) PeekLane(lane int, signal string) *Script {
	return b.Add(testbench.Command{Op: testbench.OpPeek, Lane: lane, Signal: signal})
}

// Step advances all lanes n cycles.
func (b *Script) Step(n int64) *Script {
	return b.Add(testbench.Command{Op: testbench.OpStep, Cycles: n})
}

// Transact applies pokes, then steps until cond holds on resp (nil: the
// first sampled cycle), within maxCycles.
func (b *Script) Transact(pokes map[string]uint64, resp string, cond *testbench.Cond, maxCycles int) *Script {
	return b.Add(testbench.Command{Op: testbench.OpTransact, Pokes: pokes, Resp: resp, Until: cond, MaxCycles: maxCycles})
}

// Handshake performs a valid/ready transfer within maxCycles.
func (b *Script) Handshake(valid string, pokes map[string]uint64, ready string, maxCycles int) *Script {
	return b.Add(testbench.Command{Op: testbench.OpHandshake, Valid: valid, Pokes: pokes, Ready: ready, MaxCycles: maxCycles})
}

// Wait steps until cond holds on the named signal of lane 0 (nil: the
// first sampled cycle), within maxCycles; the session stops at the exact
// accepting cycle.
func (b *Script) Wait(signal string, cond *testbench.Cond, maxCycles int) *Script {
	return b.Add(testbench.Command{Op: testbench.OpWait, Signal: signal, Until: cond, MaxCycles: maxCycles})
}

// WaitLane is [Script.Wait] on a batch lane.
func (b *Script) WaitLane(lane int, signal string, cond *testbench.Cond, maxCycles int) *Script {
	return b.Add(testbench.Command{Op: testbench.OpWait, Lane: lane, Signal: signal, Until: cond, MaxCycles: maxCycles})
}
