package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rteaal/internal/testbench"
)

// rtFunc adapts a function into an http.RoundTripper so transport-level
// failures can be injected and counted without a listener.
type rtFunc func(*http.Request) (*http.Response, error)

func (f rtFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// noJitter is a fast deterministic policy for retry-shape tests: timing
// asserts stay loose, attempt counts are exact.
var noJitter = RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 8 * time.Millisecond}

func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		name      string
		err       error
		idem      bool
		wantDelay time.Duration
		wantRetry bool
	}{
		{"429 backpressure", &APIError{Status: 429, RetryAfter: 3 * time.Second}, false, 3 * time.Second, true},
		{"503 draining", &APIError{Status: 503, RetryAfter: time.Second}, false, time.Second, true},
		{"503 without hint", &APIError{Status: 503}, true, 0, true},
		{"404 not found", &APIError{Status: 404}, true, 0, false},
		{"422 command failure", &APIError{Status: 422}, true, 0, false},
		{"500 panic", &APIError{Status: 500, Kind: "panic"}, true, 0, false},
		{"wrapped api error", fmt.Errorf("call: %w", &APIError{Status: 429, RetryAfter: time.Second}), false, time.Second, true},
		{"context canceled", context.Canceled, true, 0, false},
		{"context deadline", fmt.Errorf("req: %w", context.DeadlineExceeded), true, 0, false},
		{"transport error, idempotent", errors.New("connection reset"), true, 0, true},
		{"transport error, non-idempotent", errors.New("connection reset"), false, 0, false},
	}
	for _, tc := range cases {
		delay, retry := retryable(tc.err, tc.idem)
		if retry != tc.wantRetry || delay != tc.wantDelay {
			t.Errorf("%s: retryable = (%v, %v), want (%v, %v)",
				tc.name, delay, retry, tc.wantDelay, tc.wantRetry)
		}
	}
}

func TestBackoffCapsAndFloors(t *testing.T) {
	c := New("http://unused", WithRetry(RetryPolicy{
		MaxAttempts: 10,
		BaseDelay:   time.Millisecond,
		MaxDelay:    5 * time.Millisecond,
	}))
	// Attempt 10 would be 512ms exponentially; MaxDelay caps the sleep.
	start := time.Now()
	if err := c.backoff(context.Background(), 10, 0); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < 5*time.Millisecond || el > 500*time.Millisecond {
		t.Errorf("capped backoff slept %v, want ~5ms", el)
	}
	// A server Retry-After above the exponential step floors the sleep —
	// but is itself still subject to the MaxDelay cap.
	start = time.Now()
	if err := c.backoff(context.Background(), 1, 3*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < 3*time.Millisecond {
		t.Errorf("floored backoff slept %v, want >= 3ms", el)
	}
	start = time.Now()
	if err := c.backoff(context.Background(), 1, time.Minute); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 500*time.Millisecond {
		t.Errorf("Retry-After of 1m not capped by MaxDelay: slept %v", el)
	}
	// An expired context aborts the sleep with its error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.backoff(ctx, 1, time.Minute); !errors.Is(err, context.Canceled) {
		t.Errorf("backoff under a canceled context: err = %v, want context.Canceled", err)
	}
}

// TestBackoffNeverOverflows: a policy with many attempts keeps sleeping the
// capped delay on every late attempt. Shifting the base delay by the attempt
// count wraps it negative (and from attempt 64 on to zero), which skipped
// the sleep entirely.
func TestBackoffNeverOverflows(t *testing.T) {
	const maxDelay = 4 * time.Millisecond
	c := New("http://unused", WithRetry(RetryPolicy{
		MaxAttempts: 200,
		BaseDelay:   time.Millisecond,
		MaxDelay:    maxDelay,
	}))
	for _, attempt := range []int{45, 64, 100, 200} {
		start := time.Now()
		if err := c.backoff(context.Background(), attempt, 0); err != nil {
			t.Fatal(err)
		}
		if el := time.Since(start); el < maxDelay {
			t.Errorf("attempt %d slept %v, want the %v cap", attempt, el, maxDelay)
		}
	}
}

func TestRetryHonorsRetryAfterThenSucceeds(t *testing.T) {
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"saturated","kind":"backpressure"}`)
			return
		}
		fmt.Fprint(w, `{"ok":true,"cycle":0}`)
	}))
	defer srv.Close()
	c := New(srv.URL, WithRetry(noJitter))
	if _, err := c.Health(context.Background()); err != nil {
		t.Fatalf("call failed despite retry budget: %v", err)
	}
	if n := hits.Load(); n != 3 {
		t.Errorf("server saw %d requests, want 3 (two 429s, one success)", n)
	}
}

func TestRetryBudgetExhaustedSurfacesAPIError(t *testing.T) {
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Retry-After", "0")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, `{"error":"draining","kind":"draining"}`)
	}))
	defer srv.Close()
	c := New(srv.URL, WithRetry(noJitter))
	_, err := c.Health(context.Background())
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v, want *APIError", err)
	}
	if apiErr.Status != http.StatusServiceUnavailable || apiErr.Kind != "draining" || apiErr.Message != "draining" {
		t.Errorf("APIError = %+v, want 503/draining", apiErr)
	}
	if n := hits.Load(); int(n) != noJitter.MaxAttempts {
		t.Errorf("server saw %d requests, want the full budget of %d", n, noJitter.MaxAttempts)
	}
}

func TestNonRetryableStatusIsImmediate(t *testing.T) {
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprint(w, `{"error":"unknown design","kind":"not_found"}`)
	}))
	defer srv.Close()
	c := New(srv.URL, WithRetry(noJitter))
	_, err := c.Design(context.Background(), "deadbeef")
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("err = %v, want a 404 *APIError", err)
	}
	if n := hits.Load(); n != 1 {
		t.Errorf("404 was retried: server saw %d requests, want 1", n)
	}
}

func TestTransportErrorRetriedOnlyWhenIdempotent(t *testing.T) {
	var calls atomic.Int32
	broken := &http.Client{Transport: rtFunc(func(r *http.Request) (*http.Response, error) {
		calls.Add(1)
		return nil, errors.New("connection reset by peer")
	})}
	c := New("http://example.invalid", WithHTTPClient(broken), WithRetry(noJitter))

	// GETs are safe to repeat: the full retry budget is spent.
	if _, err := c.Design(context.Background(), "deadbeef"); err == nil {
		t.Fatal("transport error did not surface")
	}
	if n := calls.Load(); int(n) != noJitter.MaxAttempts {
		t.Errorf("idempotent GET made %d attempts, want %d", n, noJitter.MaxAttempts)
	}

	// Session creation is not: the server may have leased the session
	// before the connection dropped, so exactly one attempt is made.
	calls.Store(0)
	if _, err := c.NewSession(context.Background(), "deadbeef", 0); err == nil {
		t.Fatal("transport error did not surface")
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("non-idempotent POST made %d attempts, want 1", n)
	}

	// Command execution repeats simulated cycles if replayed: never retried.
	calls.Store(0)
	sess := &Session{c: c, ID: "s1"}
	if _, err := sess.Do(context.Background(), NewScript().Step(4)); err == nil {
		t.Fatal("transport error did not surface")
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("command POST made %d attempts, want 1", n)
	}
}

func TestParseRetryAfter(t *testing.T) {
	cases := []struct {
		in   string
		want time.Duration
	}{
		{"", 0},
		{"0", 0},
		{"3", 3 * time.Second},
		{" 2 ", 2 * time.Second},
		{"-1", 0},
		{"soon", 0},
		{"Wed, 21 Oct 2026 07:28:00 GMT", 0}, // http-date form: not emitted by this server
	}
	for _, tc := range cases {
		if got := parseRetryAfter(tc.in); got != tc.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestAPIErrorDecodesKindAndPartialResponse(t *testing.T) {
	// A failed command batch answers non-2xx with the error envelope AND
	// the completed prefix in one body; the client must surface both.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || !strings.HasSuffix(r.URL.Path, "/commands") {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Retry-After", "2")
		w.WriteHeader(http.StatusUnprocessableEntity)
		fmt.Fprint(w, `{
			"outcomes": [
				{"op":"poke","signal":"step","value":1},
				{"op":"step","cycles":8}
			],
			"cycle": 8,
			"error": "command 2 (wait): wait timed out",
			"kind": "timeout"
		}`)
	}))
	defer srv.Close()
	c := New(srv.URL, WithoutRetry())
	sess := &Session{c: c, ID: "s1"}
	resp, err := sess.Do(context.Background(), NewScript().
		Poke("step", 1).
		Step(8).
		Wait("done", &testbench.Cond{Test: testbench.CondNonzero}, 4))
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v, want *APIError", err)
	}
	if apiErr.Status != http.StatusUnprocessableEntity {
		t.Errorf("Status = %d, want 422", apiErr.Status)
	}
	if apiErr.Kind != "timeout" {
		t.Errorf("Kind = %q, want %q", apiErr.Kind, "timeout")
	}
	if !strings.Contains(apiErr.Message, "wait timed out") {
		t.Errorf("Message = %q, want the server's error text", apiErr.Message)
	}
	if apiErr.RetryAfter != 2*time.Second {
		t.Errorf("RetryAfter = %v, want 2s", apiErr.RetryAfter)
	}
	if resp == nil || len(resp.Outcomes) != 2 || resp.Cycle != 8 {
		t.Fatalf("partial response not decoded alongside the error: %+v", resp)
	}
	if resp.Outcomes[1].Op != testbench.OpStep || resp.Outcomes[1].Cycles != 8 {
		t.Errorf("completed prefix wrong: %+v", resp.Outcomes)
	}
}

func TestAPIErrorNonJSONBody(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprint(w, "  proxy exploded  \n")
	}))
	defer srv.Close()
	c := New(srv.URL, WithoutRetry())
	_, err := c.Health(context.Background())
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v, want *APIError", err)
	}
	if apiErr.Status != 500 || apiErr.Message != "proxy exploded" || apiErr.Kind != "" {
		t.Errorf("APIError = %+v, want the trimmed raw body as the message", apiErr)
	}
}

func TestScriptBuilder(t *testing.T) {
	cond := &testbench.Cond{Test: testbench.CondGeq, Value: 10}
	s := NewScript().
		Poke("step", 1).
		PokeLane(2, "mode", 3).
		Peek("count").
		PeekLane(1, "count").
		Step(16).
		Transact(map[string]uint64{"cmd": 7}, "resp", &testbench.Cond{Test: testbench.CondNonzero}, 100).
		Handshake("v", map[string]uint64{"bits": 9}, "r", 50).
		Wait("count", cond, 200).
		WaitLane(3, "done", nil, 8).
		Add(testbench.Command{Op: testbench.OpStep, Cycles: 1})
	want := []testbench.Command{
		{Op: testbench.OpPoke, Signal: "step", Value: 1},
		{Op: testbench.OpPoke, Lane: 2, Signal: "mode", Value: 3},
		{Op: testbench.OpPeek, Signal: "count"},
		{Op: testbench.OpPeek, Lane: 1, Signal: "count"},
		{Op: testbench.OpStep, Cycles: 16},
		{Op: testbench.OpTransact, Pokes: map[string]uint64{"cmd": 7}, Resp: "resp",
			Until: &testbench.Cond{Test: testbench.CondNonzero}, MaxCycles: 100},
		{Op: testbench.OpHandshake, Valid: "v", Pokes: map[string]uint64{"bits": 9}, Ready: "r", MaxCycles: 50},
		{Op: testbench.OpWait, Signal: "count", Until: cond, MaxCycles: 200},
		{Op: testbench.OpWait, Lane: 3, Signal: "done", MaxCycles: 8},
		{Op: testbench.OpStep, Cycles: 1},
	}
	if s.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(want))
	}
	if got := s.Commands(); !reflect.DeepEqual(got, want) {
		t.Errorf("Commands mismatch:\n got %+v\nwant %+v", got, want)
	}
	// Every accumulated command must pass wire validation: the builder
	// can't construct a script the server's decoder rejects.
	if _, err := testbench.EncodeCommands(s.Commands()); err != nil {
		t.Errorf("builder emitted an unencodable script: %v", err)
	}
}

func TestClientIdentityAndBaseURL(t *testing.T) {
	var gotID atomic.Value
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotID.Store(r.Header.Get("X-Client"))
		fmt.Fprint(w, `{}`)
	}))
	defer srv.Close()
	c := New(srv.URL+"///", WithClientID("tb-7"), WithoutRetry())
	if c.BaseURL() != srv.URL {
		t.Errorf("BaseURL = %q, want trailing slashes trimmed to %q", c.BaseURL(), srv.URL)
	}
	if _, err := c.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
	if id, _ := gotID.Load().(string); id != "tb-7" {
		t.Errorf("X-Client = %q, want %q", id, "tb-7")
	}
}
