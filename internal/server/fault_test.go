package server_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"rteaal/internal/faultinject"
	"rteaal/internal/server"
	"rteaal/sim"
	"rteaal/sim/client"
)

// checkGoroutineLeaks snapshots the goroutine count and registers a
// cleanup asserting the count settles back. Call it FIRST in a test, so
// the check runs LAST — after the test's own cleanups (server close,
// httptest close) have torn everything down. A settle loop absorbs the
// asynchronous unwinding of HTTP keep-alives and worker joins.
func checkGoroutineLeaks(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		http.DefaultClient.CloseIdleConnections()
		deadline := time.Now().Add(5 * time.Second)
		for {
			if runtime.NumGoroutine() <= before {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				n := runtime.Stack(buf, true)
				t.Errorf("goroutine leak: %d before, %d after\n%s",
					before, runtime.NumGoroutine(), buf[:n])
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// parityRun drives the standard counter script over the wire and compares
// against the in-process reference — the "is the server still simulating
// correctly" probe the fault tests run after every injected failure.
func parityRun(t *testing.T, c *client.Client) {
	t.Helper()
	ctx := context.Background()
	cr, err := c.Compile(ctx, counterSrc, server.CompileOptions{})
	if err != nil {
		t.Fatalf("parity compile: %v", err)
	}
	d, err := sim.Compile(counterSrc)
	if err != nil {
		t.Fatal(err)
	}
	script := counterScript(1)
	want := refExec(t, d.NewSession().Testbench(), script.Commands())

	sess, err := c.NewSession(ctx, cr.Hash, 0)
	if err != nil {
		t.Fatalf("parity session: %v", err)
	}
	defer sess.Close(ctx)
	resp, err := sess.Do(ctx, script)
	if err != nil {
		t.Fatalf("parity run: %v", err)
	}
	if len(resp.Outcomes) != len(want) {
		t.Fatalf("parity: %d outcomes, want %d", len(resp.Outcomes), len(want))
	}
	for i := range want {
		if resp.Outcomes[i] != want[i] {
			t.Fatalf("parity outcome %d: %+v, want %+v", i, resp.Outcomes[i], want[i])
		}
	}
}

// TestFaultCompilePanic: a panic inside the single-flight compile answers
// a typed 500, concurrent joiners of the same compile unwedge with the
// same error, and the server compiles the very same source cleanly once
// the fault is gone.
func TestFaultCompilePanic(t *testing.T) {
	checkGoroutineLeaks(t)
	t.Cleanup(faultinject.Reset)
	// A high breaker limit: late joiners that miss the single flight start
	// compiles of their own, and each one panics — that must answer
	// "panic", not trip the breaker into "circuit_open" mid-test.
	_, c := newTestService(t, server.Config{CompileFailLimit: 100})
	ctx := context.Background()

	disarm := faultinject.Arm(faultinject.CompilePanic, faultinject.Always(faultinject.Panicf("injected compile crash")))
	const joiners = 4
	var wg sync.WaitGroup
	errs := make([]error, joiners)
	for i := 0; i < joiners; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.Compile(ctx, counterSrc, server.CompileOptions{})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.Status != 500 || apiErr.Kind != server.KindPanic {
			t.Fatalf("joiner %d: %v, want a 500 with kind %q", i, err, server.KindPanic)
		}
	}
	disarm()

	parityRun(t, c) // same source now compiles and simulates correctly
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Fault.PanicsRecovered == 0 {
		t.Error("panics_recovered = 0 after an injected compile panic")
	}
}

// TestFaultRunPanicQuarantine: a panic during command execution answers a
// typed 500, quarantines exactly the affected session (engine closed, lease
// unlinked), and the server keeps serving: a fresh session of the same
// design passes the golden-trace parity check.
func TestFaultRunPanicQuarantine(t *testing.T) {
	checkGoroutineLeaks(t)
	t.Cleanup(faultinject.Reset)
	_, c := newTestService(t, server.Config{})
	ctx := context.Background()

	cr, err := c.Compile(ctx, counterSrc, server.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, lanes := range []int{0, 2} {
		t.Run(fmt.Sprintf("lanes=%d", lanes), func(t *testing.T) {
			sess, err := c.NewSession(ctx, cr.Hash, lanes)
			if err != nil {
				t.Fatal(err)
			}
			disarm := faultinject.Arm(faultinject.RunPanic, faultinject.Always(faultinject.Panicf("injected run crash")))
			_, err = sess.Do(ctx, client.NewScript().Step(4))
			disarm()
			var apiErr *client.APIError
			if !errors.As(err, &apiErr) || apiErr.Status != 500 || apiErr.Kind != server.KindPanic {
				t.Fatalf("panicked run answered %v, want 500 kind %q", err, server.KindPanic)
			}
			// The lease is gone — quarantined, not merely errored.
			if _, err := sess.Do(ctx, client.NewScript().Step(1)); !errors.As(err, &apiErr) || apiErr.Status != 404 {
				t.Fatalf("quarantined session answered %v, want 404", err)
			}
		})
	}

	parityRun(t, c) // the design still serves fresh, correct sessions
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Fault.PanicsRecovered < 2 || m.Fault.SessionsQuarantined != 2 {
		t.Errorf("fault metrics %+v, want >=2 panics recovered, exactly 2 quarantines", m.Fault)
	}
	if pm := m.Pools[cr.Hash]; pm.Live != 0 {
		t.Errorf("design holds %d live scalar leases after quarantine, want 0", pm.Live)
	}
}

// lockedBuffer is a log sink the handler goroutine writes and the test
// goroutine reads.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestFaultPanicStackLogged: the client only ever sees "panic: <value>", so
// a recovered panic must leave its value and the panicking goroutine's
// stack in the process log — exactly once per panic.
func TestFaultPanicStackLogged(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	var logged lockedBuffer
	log.SetOutput(&logged)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	_, c := newTestService(t, server.Config{})
	ctx := context.Background()

	cr, err := c.Compile(ctx, counterSrc, server.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := c.NewSession(ctx, cr.Hash, 0)
	if err != nil {
		t.Fatal(err)
	}
	disarm := faultinject.Arm(faultinject.RunPanic, faultinject.Always(faultinject.Panicf("injected run crash")))
	_, err = sess.Do(ctx, client.NewScript().Step(4))
	disarm()
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Kind != server.KindPanic {
		t.Fatalf("panicked run answered %v, want kind %q", err, server.KindPanic)
	}

	out := logged.String()
	for _, want := range []string{
		"recovered panic in run: faultinject: injected run crash", // the value
		"faultinject.Panicf.func1(",                               // the frame that panicked
	} {
		if n := strings.Count(out, want); n != 1 {
			t.Errorf("log mentions %q %d times, want 1:\n%s", want, n, out)
		}
	}
}

// TestFaultSlowRunTimeout: a run outliving ExecTimeout stops at a
// cancellation check and answers 504 with the completed prefix; the
// session survives and runs the next command list normally.
func TestFaultSlowRunTimeout(t *testing.T) {
	checkGoroutineLeaks(t)
	t.Cleanup(faultinject.Reset)
	_, c := newTestService(t, server.Config{ExecTimeout: 50 * time.Millisecond})
	ctx := context.Background()

	cr, err := c.Compile(ctx, counterSrc, server.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := c.NewSession(ctx, cr.Hash, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close(ctx)

	disarm := faultinject.Arm(faultinject.SlowRun, faultinject.Always(faultinject.Sleep(150*time.Millisecond)))
	resp, err := sess.Do(ctx, client.NewScript().Poke("step", 2).Step(100).Peek("count"))
	disarm()
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusGatewayTimeout || apiErr.Kind != server.KindTimeout {
		t.Fatalf("slow run answered %v, want 504 kind %q", err, server.KindTimeout)
	}
	// The completed prefix travels with the 504: the poke ran, the step
	// was cut short before the peek.
	if resp == nil || len(resp.Outcomes) != 1 || resp.Kind != server.KindTimeout {
		t.Fatalf("504 carried %+v, want the 1-command prefix with kind set", resp)
	}

	// Same session, next batch: fully usable.
	ok, err := sess.Do(ctx, client.NewScript().Step(3).Peek("count"))
	if err != nil {
		t.Fatalf("session unusable after timeout: %v", err)
	}
	if len(ok.Outcomes) != 2 {
		t.Fatalf("post-timeout run returned %d outcomes, want 2", len(ok.Outcomes))
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Fault.Timeouts != 1 {
		t.Errorf("timeouts = %d, want 1", m.Fault.Timeouts)
	}
	parityRun(t, c)
}

// TestFaultPoolExhaustedRetry: end-to-end client resilience — injected
// design saturation answers 429 and the client's backoff loop rides it out,
// succeeding once capacity "returns", without the test doing any retrying.
func TestFaultPoolExhaustedRetry(t *testing.T) {
	checkGoroutineLeaks(t)
	t.Cleanup(faultinject.Reset)
	srv := server.New(server.Config{})
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	rc := client.New(ts.URL, client.WithClientID("retry"), client.WithRetry(client.RetryPolicy{
		MaxAttempts: 4,
		BaseDelay:   time.Millisecond,
		MaxDelay:    5 * time.Millisecond, // caps the server's 1s Retry-After hint
		Jitter:      0.2,
	}))
	ctx := context.Background()

	cr, err := rc.Compile(ctx, counterSrc, server.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Arm(faultinject.PoolExhausted, faultinject.FirstN(2, faultinject.Error(errors.New("injected saturation"))))
	sess, err := rc.NewSession(ctx, cr.Hash, 0)
	if err != nil {
		t.Fatalf("client did not ride out the 429s: %v", err)
	}
	defer sess.Close(ctx)
	if h := faultinject.Hits(faultinject.PoolExhausted); h != 3 {
		t.Fatalf("create fired %d times, want 3 (two 429s + the success)", h)
	}
	if _, err := sess.Do(ctx, client.NewScript().Step(2).Peek("count")); err != nil {
		t.Fatalf("session from retried create unusable: %v", err)
	}
}

// TestFaultConnDropNoRetry: a connection dropped after the server already
// executed a command list surfaces as a transport error that the client
// must NOT retry — repeating the batch would advance the simulation twice.
// The session log proves the work happened exactly once.
func TestFaultConnDropNoRetry(t *testing.T) {
	checkGoroutineLeaks(t)
	t.Cleanup(faultinject.Reset)
	srv := server.New(server.Config{})
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	rc := client.New(ts.URL, client.WithClientID("dropper"), client.WithRetry(client.RetryPolicy{
		MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond,
	}))
	ctx := context.Background()

	cr, err := rc.Compile(ctx, counterSrc, server.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := rc.NewSession(ctx, cr.Hash, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close(ctx)

	disarm := faultinject.Arm(faultinject.ConnDrop, faultinject.Always(faultinject.Error(errors.New("drop"))))
	_, err = sess.Do(ctx, client.NewScript().Step(5))
	hits := faultinject.Hits(faultinject.ConnDrop) // read before disarm clears the point
	disarm()
	if err == nil {
		t.Fatal("dropped connection produced no error")
	}
	var apiErr *client.APIError
	if errors.As(err, &apiErr) {
		t.Fatalf("dropped connection surfaced as an API answer: %v", err)
	}
	if hits != 1 {
		t.Fatalf("command list executed %d times after a transport error, want exactly 1 (no retry)", hits)
	}
	// The server did the work: the log holds the step.
	lg, err := sess.Log(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(lg.Entries) != 1 {
		t.Fatalf("log holds %d entries, want the 1 executed command", len(lg.Entries))
	}
}

// TestDrainRejectsAndRecovers: BeginDrain fails readiness (not liveness)
// and answers new work with 503 + Retry-After; EndDrain restores full
// service, proven by a parity run.
func TestDrainRejectsAndRecovers(t *testing.T) {
	checkGoroutineLeaks(t)
	srv, c := newTestService(t, server.Config{})
	ctx := context.Background()

	cr, err := c.Compile(ctx, counterSrc, server.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := c.NewSession(ctx, cr.Hash, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close(ctx)

	srv.BeginDrain()
	if _, err := c.Health(ctx); err != nil {
		t.Fatalf("liveness failed during drain: %v", err)
	}
	var apiErr *client.APIError
	if _, err := c.Ready(ctx); !errors.As(err, &apiErr) || apiErr.Status != 503 {
		t.Fatalf("readiness during drain answered %v, want 503", err)
	}
	for name, call := range map[string]func() error{
		"compile":  func() error { _, err := c.Compile(ctx, counterSrc, server.CompileOptions{}); return err },
		"session":  func() error { _, err := c.NewSession(ctx, cr.Hash, 0); return err },
		"commands": func() error { _, err := sess.Do(ctx, client.NewScript().Step(1)); return err },
	} {
		err := call()
		if !errors.As(err, &apiErr) || apiErr.Status != 503 || apiErr.Kind != server.KindDraining {
			t.Fatalf("%s during drain answered %v, want 503 kind %q", name, err, server.KindDraining)
		}
		if apiErr.RetryAfter != 5*time.Second {
			t.Fatalf("%s 503 carried Retry-After %v, want 5s", name, apiErr.RetryAfter)
		}
	}

	srv.EndDrain()
	if r, err := c.Ready(ctx); err != nil || r.Status != "ready" {
		t.Fatalf("readiness after EndDrain: %v %+v", err, r)
	}
	parityRun(t, c)

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Fault.DrainRejected != 3 {
		t.Errorf("drain_rejected = %d, want 3", m.Fault.DrainRejected)
	}
	if m.Fault.Draining {
		t.Error("metrics still report draining after EndDrain")
	}
}

// TestDrainWaitsForInFlight: Drain blocks until a command list already
// executing finishes, and that list completes successfully — graceful
// shutdown never cuts in-flight work dead.
func TestDrainWaitsForInFlight(t *testing.T) {
	checkGoroutineLeaks(t)
	t.Cleanup(faultinject.Reset)
	srv, c := newTestService(t, server.Config{})
	ctx := context.Background()

	cr, err := c.Compile(ctx, counterSrc, server.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := c.NewSession(ctx, cr.Hash, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close(ctx)

	// Hold the run long enough for drain to start while it is in flight.
	faultinject.Arm(faultinject.SlowRun, faultinject.Always(faultinject.Sleep(150*time.Millisecond)))
	started := time.Now()
	done := make(chan error, 1)
	go func() {
		_, err := sess.Do(ctx, client.NewScript().Step(8).Peek("count"))
		done <- err
	}()
	time.Sleep(30 * time.Millisecond) // let the request reach the handler
	srv.BeginDrain()
	dctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if waited := time.Since(started); waited < 120*time.Millisecond {
		t.Errorf("Drain returned after %s, before the in-flight run could have finished", waited)
	}
	if err := <-done; err != nil {
		t.Fatalf("in-flight run failed during drain: %v", err)
	}
	srv.EndDrain()
}

// TestCircuitBreaker: repeated compile failures of one design trip its
// breaker — further compiles short-circuit with 503 and a Retry-After —
// and after the cooldown a probe is allowed through. Healthy designs are
// unaffected, which also flips /readyz from degraded back to ready.
func TestCircuitBreaker(t *testing.T) {
	checkGoroutineLeaks(t)
	var mu sync.Mutex
	now := time.Unix(1_700_000_000, 0)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	_, c := newTestService(t, server.Config{
		CompileFailLimit: 2,
		BreakerCooldown:  30 * time.Second,
		Clock:            clock,
	})
	ctx := context.Background()
	const badSrc = "this is not firrtl"

	var apiErr *client.APIError
	for i := 0; i < 2; i++ {
		if _, err := c.Compile(ctx, badSrc, server.CompileOptions{}); !errors.As(err, &apiErr) || apiErr.Status != 422 {
			t.Fatalf("bad compile %d answered %v, want 422", i+1, err)
		}
	}
	// Third attempt: the breaker short-circuits without compiling.
	_, err := c.Compile(ctx, badSrc, server.CompileOptions{})
	if !errors.As(err, &apiErr) || apiErr.Status != 503 || apiErr.Kind != server.KindCircuitOpen {
		t.Fatalf("tripped breaker answered %v, want 503 kind %q", err, server.KindCircuitOpen)
	}
	if apiErr.RetryAfter <= 0 || apiErr.RetryAfter > 30*time.Second {
		t.Fatalf("breaker Retry-After = %s, want in (0, 30s]", apiErr.RetryAfter)
	}
	// Nothing cached and a breaker open: the replica reports degraded.
	if _, err := c.Ready(ctx); !errors.As(err, &apiErr) || apiErr.Status != 503 {
		t.Fatalf("readiness with all designs broken answered %v, want 503", err)
	}

	// Past the cooldown one probe goes through (and fails again, re-opening).
	advance(31 * time.Second)
	if _, err := c.Compile(ctx, badSrc, server.CompileOptions{}); !errors.As(err, &apiErr) || apiErr.Status != 422 {
		t.Fatalf("half-open probe answered %v, want a real 422 compile failure", err)
	}
	if _, err := c.Compile(ctx, badSrc, server.CompileOptions{}); !errors.As(err, &apiErr) || apiErr.Status != 503 {
		t.Fatalf("re-opened breaker answered %v, want 503", err)
	}

	// A healthy design is a different hash: unaffected, and serving it
	// makes the replica ready again.
	parityRun(t, c)
	if r, err := c.Ready(ctx); err != nil || r.Status != "ready" {
		t.Fatalf("readiness with a healthy design: %v %+v", err, r)
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Fault.CircuitTrips != 2 || m.Fault.CircuitOpen != 1 {
		t.Errorf("breaker metrics: trips=%d open=%d, want 2 and 1", m.Fault.CircuitTrips, m.Fault.CircuitOpen)
	}
}

// TestReadyzFreshServer: an empty, healthy server is ready — no designs
// cached is not degraded unless a breaker is open.
func TestReadyzFreshServer(t *testing.T) {
	checkGoroutineLeaks(t)
	_, c := newTestService(t, server.Config{})
	r, err := c.Ready(context.Background())
	if err != nil || r.Status != "ready" || r.Draining || r.CircuitOpen != 0 {
		t.Fatalf("fresh server readiness: %v %+v", err, r)
	}
}

// TestDeleteDuringRun: DELETE of a session with a command list in flight
// cancels the run at a chunk boundary — the run answers 410 with the
// completed prefix, the DELETE completes, and the engine closes instead of
// being held for the rest of the batch.
func TestDeleteDuringRun(t *testing.T) {
	checkGoroutineLeaks(t)
	t.Cleanup(faultinject.Reset)
	_, c := newTestService(t, server.Config{})
	ctx := context.Background()

	cr, err := c.Compile(ctx, counterSrc, server.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := c.NewSession(ctx, cr.Hash, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Hold the handler inside execution long enough for the DELETE to
	// arrive while the command list is in flight; the abort flag is then
	// observed at the run's first cancellation check.
	faultinject.Arm(faultinject.SlowRun, faultinject.Always(faultinject.Sleep(150*time.Millisecond)))
	type result struct {
		resp *server.CommandsResponse
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := sess.Do(ctx, client.NewScript().Poke("step", 1).Step(1_000_000))
		done <- result{resp, err}
	}()
	time.Sleep(30 * time.Millisecond)
	delStart := time.Now()
	if err := sess.Close(ctx); err != nil {
		t.Fatalf("DELETE during run: %v", err)
	}
	delWait := time.Since(delStart)

	r := <-done
	var apiErr *client.APIError
	if !errors.As(r.err, &apiErr) || apiErr.Status != http.StatusGone || apiErr.Kind != server.KindCanceled {
		t.Fatalf("canceled run answered %v, want 410 kind %q", r.err, server.KindCanceled)
	}
	if r.resp == nil || r.resp.Kind != server.KindCanceled {
		t.Fatalf("canceled run carried %+v, want the prefix response with kind set", r.resp)
	}
	// The DELETE waited for the abort handshake, not the full megacycle run.
	if delWait > 3*time.Second {
		t.Errorf("DELETE blocked %s; cancellation did not cut the run short", delWait)
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Fault.Canceled != 1 {
		t.Errorf("canceled = %d, want 1", m.Fault.Canceled)
	}
	if m.Sessions.Live != 0 {
		t.Errorf("%d sessions leaked past the DELETE", m.Sessions.Live)
	}
	parityRun(t, c) // the design still serves fresh, correct sessions
}
