package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"rteaal/internal/server"
	"rteaal/internal/testbench"
	"rteaal/sim"
	"rteaal/sim/client"
)

const counterSrc = `
circuit Counter :
  module Counter :
    input clock : Clock
    input reset : UInt<1>
    input step : UInt<4>
    output count : UInt<8>
    regreset c : UInt<8>, clock, reset, UInt<8>(0)
    c <= tail(add(c, pad(step, 8)), 1)
    count <= c
`

func newTestService(t *testing.T, cfg server.Config) (*server.Server, *client.Client) {
	t.Helper()
	srv := server.New(cfg)
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	// Retries off: these tests assert immediate error surfacing (429s and
	// friends must not be ridden out by the client's backoff loop).
	return srv, client.New(ts.URL, client.WithClientID("test"), client.WithoutRetry())
}

// refExec executes a wire command list against an in-process testbench
// through the public sim API only — the independent reference the HTTP
// path must match.
func refExec(t *testing.T, tb *sim.Testbench, cmds []testbench.Command) []testbench.Outcome {
	t.Helper()
	outs := make([]testbench.Outcome, 0, len(cmds))
	for _, c := range cmds {
		out := testbench.Outcome{Op: c.Op, Lane: c.Lane, Signal: c.Signal}
		before := tb.Cycle()
		switch c.Op {
		case testbench.OpPoke:
			p, err := tb.PortLane(c.Signal, c.Lane)
			if err != nil {
				t.Fatal(err)
			}
			p.Poke(c.Value)
			out.Value = c.Value
		case testbench.OpPeek:
			p, err := tb.PortLane(c.Signal, c.Lane)
			if err != nil {
				t.Fatal(err)
			}
			out.Value = p.Peek()
		case testbench.OpStep:
			if err := tb.Run(c.Cycles); err != nil {
				t.Fatal(err)
			}
		case testbench.OpTransact:
			out.Signal = c.Resp
			v, err := tb.TransactLane(c.Lane, c.Pokes, c.Resp, c.Until.Pred(), c.MaxCycles)
			if err != nil {
				t.Fatal(err)
			}
			out.Value = v
		case testbench.OpHandshake:
			out.Signal = c.Valid
			n, err := tb.HandshakeLane(c.Lane, c.Valid, c.Pokes, c.Ready, c.MaxCycles)
			if err != nil {
				t.Fatal(err)
			}
			out.Value = uint64(n)
		}
		out.Cycles = tb.Cycle() - before
		outs = append(outs, out)
	}
	return outs
}

// counterScript is the shared DMI script of the parity test: pokes, a
// multi-cycle run, peeks, and a transact, per lane.
func counterScript(lanes int) *client.Script {
	s := client.NewScript()
	for l := 0; l < lanes; l++ {
		s.PokeLane(l, "step", uint64(l+3))
	}
	s.Step(7)
	for l := 0; l < lanes; l++ {
		s.PeekLane(l, "count")
	}
	for l := 0; l < lanes; l++ {
		s.Add(testbench.Command{
			Op: testbench.OpTransact, Lane: l,
			Pokes:     map[string]uint64{"step": 1},
			Resp:      "count",
			Until:     &testbench.Cond{Test: testbench.CondNonzero},
			MaxCycles: 20,
		})
	}
	s.Step(3)
	for l := 0; l < lanes; l++ {
		s.PeekLane(l, "count")
	}
	return s
}

// TestWireParity is the golden-trace test: the same DMI script driven
// in-process through sim.Testbench and over HTTP through sim/client must
// produce identical outcome traces — for a scalar session, a
// RepCut-partitioned session (n=3), and a 3-lane batch.
func TestWireParity(t *testing.T) {
	cases := []struct {
		name  string
		opts  server.CompileOptions
		lanes int
	}{
		{"scalar", server.CompileOptions{}, 0},
		{"partitioned", server.CompileOptions{Partitions: 3}, 0},
		{"batch", server.CompileOptions{}, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, c := newTestService(t, server.Config{})
			ctx := context.Background()

			// Reference: the same compile options, in-process.
			simOpts, err := tc.opts.SimOptions()
			if err != nil {
				t.Fatal(err)
			}
			d, err := sim.Compile(counterSrc, simOpts...)
			if err != nil {
				t.Fatal(err)
			}
			var ref *sim.Testbench
			if tc.lanes > 0 {
				b, err := d.NewBatch(tc.lanes)
				if err != nil {
					t.Fatal(err)
				}
				defer b.Close()
				ref = b.Testbench()
			} else {
				ref = d.NewSession().Testbench()
			}

			script := counterScript(max(tc.lanes, 1))
			want := refExec(t, ref, script.Commands())

			// Wire path: compile, lease, execute the same script.
			cr, err := c.Compile(ctx, counterSrc, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			sess, err := c.NewSession(ctx, cr.Hash, tc.lanes)
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close(ctx)
			resp, err := sess.Do(ctx, script)
			if err != nil {
				t.Fatal(err)
			}

			if len(resp.Outcomes) != len(want) {
				t.Fatalf("wire returned %d outcomes, reference %d", len(resp.Outcomes), len(want))
			}
			for i := range want {
				if resp.Outcomes[i] != want[i] {
					t.Errorf("outcome %d: wire %+v, reference %+v", i, resp.Outcomes[i], want[i])
				}
			}
			if resp.Cycle != ref.Cycle() {
				t.Errorf("wire cycle %d, reference %d", resp.Cycle, ref.Cycle())
			}

			// The recorded log replays to the same trace on a fresh
			// in-process testbench of the same design.
			lg, err := sess.Log(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if lg.Dropped != 0 || len(lg.Entries) != len(want) {
				t.Fatalf("log: %d entries (dropped %d), want %d", len(lg.Entries), lg.Dropped, len(want))
			}
			var fresh *sim.Testbench
			if tc.lanes > 0 {
				b, err := d.NewBatch(tc.lanes)
				if err != nil {
					t.Fatal(err)
				}
				defer b.Close()
				fresh = b.Testbench()
			} else {
				fresh = d.NewSession().Testbench()
			}
			replay := make([]testbench.Command, len(lg.Entries))
			for i, e := range lg.Entries {
				replay[i] = e.Command
			}
			got := refExec(t, fresh, replay)
			for i := range want {
				if got[i] != lg.Entries[i].Outcome {
					t.Errorf("replayed outcome %d: %+v, log recorded %+v", i, got[i], lg.Entries[i].Outcome)
				}
			}

			// A clean parity run must not have tripped any of the fault
			// machinery: no recovered panics, timeouts, cancellations,
			// drain rejections, quarantines, or open breakers.
			m, err := c.Metrics(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if f := m.Fault; f.PanicsRecovered != 0 || f.Timeouts != 0 || f.Canceled != 0 ||
				f.DrainRejected != 0 || f.SessionsQuarantined != 0 ||
				f.CircuitTrips != 0 || f.CircuitOpen != 0 || f.Draining {
				t.Errorf("fault metrics after clean run: %+v", m.Fault)
			}
		})
	}
}

// TestCacheSingleFlight posts the identical source from many concurrent
// clients: the cache must end with exactly one entry and exactly one
// compile (misses == 1), everyone else served as a hit or by joining the
// in-flight compile.
func TestCacheSingleFlight(t *testing.T) {
	_, c := newTestService(t, server.Config{})
	ctx := context.Background()

	const n = 12
	hashes := make([]string, n)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := c.Compile(ctx, counterSrc, server.CompileOptions{})
			if err != nil {
				errs[i] = err
				return
			}
			hashes[i] = resp.Hash
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("compile %d: %v", i, err)
		}
	}
	for i := 1; i < n; i++ {
		if hashes[i] != hashes[0] {
			t.Fatalf("hash diverged: %s vs %s", hashes[i], hashes[0])
		}
	}

	// One more serial compile must be a plain cache hit.
	resp, err := c.Compile(ctx, counterSrc, server.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Cached {
		t.Error("serial recompile was not served from cache")
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Cache.Entries != 1 {
		t.Errorf("cache entries = %d, want 1", m.Cache.Entries)
	}
	if m.Cache.Misses != 1 {
		t.Errorf("cache misses = %d, want exactly 1 compile", m.Cache.Misses)
	}
	if m.Cache.Hits+m.Cache.InflightDeduped != n {
		t.Errorf("hits(%d) + deduped(%d) = %d, want %d non-compiling clients",
			m.Cache.Hits, m.Cache.InflightDeduped, m.Cache.Hits+m.Cache.InflightDeduped, n)
	}

	// Different compile options are a different design identity.
	part, err := c.Compile(ctx, counterSrc, server.CompileOptions{Partitions: 3})
	if err != nil {
		t.Fatal(err)
	}
	if part.Hash == hashes[0] {
		t.Error("partitioned compile shares the unpartitioned hash")
	}
	if part.Cached {
		t.Error("partitioned compile claimed a cache hit")
	}
}

// TestConcurrentClients drives 16 goroutine clients against one shared
// design: each repeatedly leases a session (riding out 429 backpressure),
// runs a script, checks the deterministic result, and releases. Run under
// -race this is the wire layer's data-race test.
func TestConcurrentClients(t *testing.T) {
	_, base := newTestService(t, server.Config{PoolCap: 4, MaxSessionsPerClient: 2})
	ctx := context.Background()

	cr, err := base.Compile(ctx, counterSrc, server.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}

	const clients = 16
	const rounds = 4
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := client.New(base.BaseURL(), client.WithClientID(fmt.Sprintf("client-%d", i)), client.WithoutRetry())
			step := uint64(i%7 + 1)
			for r := 0; r < rounds; r++ {
				var sess *client.Session
				for {
					var err error
					sess, err = c.NewSession(ctx, cr.Hash, 0)
					if err == nil {
						break
					}
					var apiErr *client.APIError
					if errors.As(err, &apiErr) && apiErr.Status == 429 {
						time.Sleep(time.Millisecond)
						continue
					}
					errCh <- fmt.Errorf("client %d: %w", i, err)
					return
				}
				resp, err := sess.Do(ctx, client.NewScript().
					Poke("step", step).Step(8).Peek("count"))
				if err != nil {
					errCh <- fmt.Errorf("client %d: %w", i, err)
					return
				}
				got := resp.Outcomes[len(resp.Outcomes)-1].Value
				// Every lease mints a fresh engine, so the count is a
				// pure function of step.
				want := refCount(step)
				if got != want {
					errCh <- fmt.Errorf("client %d round %d: count = %d, want %d", i, r, got, want)
					return
				}
				if err := sess.Close(ctx); err != nil {
					errCh <- fmt.Errorf("client %d: close: %w", i, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	m, err := base.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Sessions.Live != 0 {
		t.Errorf("%d sessions leaked", m.Sessions.Live)
	}
	if m.Sessions.Created == 0 || m.Sessions.Released != m.Sessions.Created {
		t.Errorf("session churn inconsistent: %+v", m.Sessions)
	}
}

// refCount computes the counter value the shared concurrent-client script
// must observe, using an in-process session as the oracle.
var refCountOnce sync.Once
var refCountDesign *sim.Design

func refCount(step uint64) uint64 {
	refCountOnce.Do(func() {
		d, err := sim.Compile(counterSrc)
		if err != nil {
			panic(err)
		}
		refCountDesign = d
	})
	tb := refCountDesign.NewSession().Testbench()
	p, err := tb.Port("step")
	if err != nil {
		panic(err)
	}
	p.Poke(step)
	if err := tb.Run(8); err != nil {
		panic(err)
	}
	out, err := tb.Port("count")
	if err != nil {
		panic(err)
	}
	return out.Peek()
}

// TestSessionTTL drives lease eviction with a fake clock: an abandoned
// lease is evicted after SessionTTL, and its engine closes with it — the
// design's live count drops to 0 at once and its slot serves a new lease.
func TestSessionTTL(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1_000_000, 0)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	advance := func(d time.Duration) {
		mu.Lock()
		now = now.Add(d)
		mu.Unlock()
	}

	srv, c := newTestService(t, server.Config{
		SessionTTL: time.Minute,
		PoolCap:    1,
		Clock:      clock,
	})
	ctx := context.Background()

	cr, err := c.Compile(ctx, counterSrc, server.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := c.NewSession(ctx, cr.Hash, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Within the TTL nothing is evicted.
	advance(30 * time.Second)
	if leases := srv.Sweep(); leases != 0 {
		t.Fatalf("swept %d leases before the TTL", leases)
	}
	if _, err := sess.Do(ctx, client.NewScript().Step(1)); err != nil {
		t.Fatalf("session died before its TTL: %v", err)
	}

	// Past the TTL the abandoned lease is evicted; commands answer 404.
	advance(2 * time.Minute)
	if leases := srv.Sweep(); leases != 1 {
		t.Fatalf("swept %d leases, want 1", leases)
	}
	var apiErr *client.APIError
	if _, err := sess.Do(ctx, client.NewScript().Step(1)); !errors.As(err, &apiErr) || apiErr.Status != 404 {
		t.Fatalf("evicted session answered %v, want a 404", err)
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Sessions.Evicted != 1 || m.Sessions.Live != 0 {
		t.Fatalf("session metrics after eviction: %+v", m.Sessions)
	}
	// The engine closed with the lease: nothing of it stays live.
	if pm := m.Pools[cr.Hash]; pm.Live != 0 || pm.HighWater != 1 {
		t.Fatalf("design capacity after eviction: %+v", pm)
	}
	// Its slot returned: the design's only slot serves a new lease.
	again, err := c.NewSession(ctx, cr.Hash, 0)
	if err != nil {
		t.Fatalf("lease after eviction: %v", err)
	}
	again.Close(ctx)
}

// TestBackpressure checks the two saturation answers: a full design and the
// per-client session bound both answer 429 with Retry-After: 1, because
// capacity returns as soon as any lease is released.
func TestBackpressure(t *testing.T) {
	_, c := newTestService(t, server.Config{PoolCap: 2, MaxSessionsPerClient: 8})
	ctx := context.Background()
	cr, err := c.Compile(ctx, counterSrc, server.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}

	s1, err := c.NewSession(ctx, cr.Hash, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.NewSession(ctx, cr.Hash, 0); err != nil {
		t.Fatal(err)
	}
	var apiErr *client.APIError
	if _, err := c.NewSession(ctx, cr.Hash, 0); !errors.As(err, &apiErr) || apiErr.Status != 429 {
		t.Fatalf("full design answered %v, want 429", err)
	}
	if apiErr.RetryAfter != time.Second {
		t.Errorf("full design's Retry-After = %s, want 1s", apiErr.RetryAfter)
	}
	// Releasing one frees capacity immediately.
	if err := s1.Close(ctx); err != nil {
		t.Fatal(err)
	}
	s3, err := c.NewSession(ctx, cr.Hash, 0)
	if err != nil {
		t.Fatalf("lease after release: %v", err)
	}
	s3.Close(ctx)

	// Per-client bound, independent of design capacity.
	_, c2 := newTestService(t, server.Config{PoolCap: 8, MaxSessionsPerClient: 1})
	cr2, err := c2.Compile(ctx, counterSrc, server.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.NewSession(ctx, cr2.Hash, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.NewSession(ctx, cr2.Hash, 0); !errors.As(err, &apiErr) || apiErr.Status != 429 {
		t.Fatalf("per-client bound answered %v, want 429", err)
	}
	if apiErr.RetryAfter != time.Second {
		t.Errorf("per-client bound's Retry-After = %s, want 1s", apiErr.RetryAfter)
	}
}

// TestEvictionKeepsOpenLeases: the design cache holds no engines, so
// evicting a design closes nothing — a lease already open on it keeps
// running until it is released, while new leases of it answer 404.
func TestEvictionKeepsOpenLeases(t *testing.T) {
	_, c := newTestService(t, server.Config{CacheSize: 1})
	ctx := context.Background()
	cr, err := c.Compile(ctx, counterSrc, server.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := c.NewSession(ctx, cr.Hash, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Compile(ctx, pairSrc, server.CompileOptions{}); err != nil {
		t.Fatal(err)
	}
	var apiErr *client.APIError
	if _, err := c.NewSession(ctx, cr.Hash, 0); !errors.As(err, &apiErr) || apiErr.Status != 404 {
		t.Fatalf("lease of an evicted design answered %v, want 404", err)
	}
	resp, err := sess.Do(ctx, client.NewScript().Poke("step", 2).Step(5).Peek("count"))
	if err != nil {
		t.Fatalf("lease on an evicted design stopped: %v", err)
	}
	if got := resp.Outcomes[2].Value; got != 8 {
		t.Errorf("count after 5 cycles of step 2 = %d, want 8", got)
	}
	if err := sess.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestPoolWaitBlocksForRelease: with PoolWait set, a create on a full design
// waits for a lease to release its slot instead of answering 429 at once,
// and answers 429 only when the wait runs out.
func TestPoolWaitBlocksForRelease(t *testing.T) {
	_, c := newTestService(t, server.Config{PoolCap: 1, PoolWait: 300 * time.Millisecond})
	ctx := context.Background()
	cr, err := c.Compile(ctx, counterSrc, server.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	held, err := c.NewSession(ctx, cr.Hash, 0)
	if err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	var apiErr *client.APIError
	if _, err := c.NewSession(ctx, cr.Hash, 0); !errors.As(err, &apiErr) || apiErr.Status != 429 {
		t.Fatalf("create on a full design answered %v, want 429 after the wait", err)
	}
	if waited := time.Since(start); waited < 300*time.Millisecond {
		t.Errorf("429 after %s, before PoolWait ran out", waited)
	}

	released := make(chan error, 1)
	go func() {
		time.Sleep(20 * time.Millisecond) // let the create below start waiting
		released <- held.Close(ctx)
	}()
	s, err := c.NewSession(ctx, cr.Hash, 0)
	if err != nil {
		t.Fatalf("create waiting on a release: %v", err)
	}
	if err := <-released; err != nil {
		t.Fatal(err)
	}
	s.Close(ctx)
}

// TestWireErrors covers the error surface: unknown design, unknown
// session, malformed command lists, a failing command answering 422
// with the completed prefix while the session stays usable, and the
// service's fixed bounds (256 lanes, 4,096 commands per request, 8 MiB
// bodies, 4,096 log entries per session).
func TestWireErrors(t *testing.T) {
	_, c := newTestService(t, server.Config{})
	ctx := context.Background()

	var apiErr *client.APIError
	if _, err := c.Design(ctx, "feedfacedeadbeef"); !errors.As(err, &apiErr) || apiErr.Status != 404 {
		t.Errorf("unknown design answered %v, want 404", err)
	}
	if _, err := c.NewSession(ctx, "feedfacedeadbeef", 0); !errors.As(err, &apiErr) || apiErr.Status != 404 {
		t.Errorf("session of unknown design answered %v, want 404", err)
	}

	// Compile rejection: garbage source is a 422, not a cache entry.
	if _, err := c.Compile(ctx, "circuit Broken :\n  nonsense\n", server.CompileOptions{}); !errors.As(err, &apiErr) || apiErr.Status != 422 {
		t.Errorf("broken source answered %v, want 422", err)
	}
	if _, err := c.Compile(ctx, counterSrc, server.CompileOptions{Kernel: "XX"}); !errors.As(err, &apiErr) || apiErr.Status != 400 {
		t.Errorf("unknown kernel answered %v, want 400", err)
	}

	cr, err := c.Compile(ctx, counterSrc, server.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := c.NewSession(ctx, cr.Hash, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close(ctx)

	// A script that fails mid-way: the first two commands execute, the
	// unknown signal fails, and the response carries the prefix.
	resp, err := sess.Do(ctx, client.NewScript().
		Poke("step", 1).Step(2).Peek("no_such_signal"))
	if !errors.As(err, &apiErr) || apiErr.Status != 422 {
		t.Fatalf("bad signal answered %v, want 422", err)
	}
	if resp == nil || len(resp.Outcomes) != 2 {
		t.Fatalf("partial outcomes = %+v, want the 2-command prefix", resp)
	}
	// The session survived and kept its state.
	ok, err := sess.Do(ctx, client.NewScript().Peek("count"))
	if err != nil {
		t.Fatalf("session unusable after a failed command: %v", err)
	}
	if ok.Cycle != 2 {
		t.Errorf("cycle after failed batch = %d, want 2", ok.Cycle)
	}

	// Unknown session and double release.
	if _, err := c.NewSession(ctx, cr.Hash, -1); !errors.As(err, &apiErr) || apiErr.Status != 400 {
		t.Errorf("negative lanes answered %v, want 400", err)
	}
	if err := sess.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(ctx); !errors.As(err, &apiErr) || apiErr.Status != 404 {
		t.Errorf("double release answered %v, want 404", err)
	}

	// Lanes: 256 is the most a batch session may have.
	if _, err := c.NewSession(ctx, cr.Hash, 257); !errors.As(err, &apiErr) || apiErr.Status != 400 {
		t.Errorf("257 lanes answered %v, want 400", err)
	}
	wide, err := c.NewSession(ctx, cr.Hash, 256)
	if err != nil {
		t.Fatalf("256 lanes: %v", err)
	}
	if err := wide.Close(ctx); err != nil {
		t.Fatal(err)
	}

	// Source bodies: over 8 MiB is refused before it is decoded.
	big := strings.Repeat(" ", 8<<20) + counterSrc
	if _, err := c.Compile(ctx, big, server.CompileOptions{}); !errors.As(err, &apiErr) || apiErr.Status != 400 {
		t.Errorf("body over 8 MiB answered %v, want 400", err)
	}

	// Command lists: 4,096 commands at most per request, and each
	// session's log keeps the newest 4,096 entries.
	logged, err := c.NewSession(ctx, cr.Hash, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer logged.Close(ctx)
	over := client.NewScript()
	for range 4097 {
		over.Peek("count")
	}
	if _, err := logged.Do(ctx, over); !errors.As(err, &apiErr) || apiErr.Status != 400 {
		t.Errorf("4,097 commands answered %v, want 400", err)
	}
	first := client.NewScript().Poke("step", 1)
	for range 4095 {
		first.Step(1)
	}
	if _, err := logged.Do(ctx, first); err != nil {
		t.Fatalf("4,096 commands: %v", err)
	}
	if _, err := logged.Do(ctx, client.NewScript().Peek("count")); err != nil {
		t.Fatal(err)
	}
	lg, err := logged.Log(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if lg.Dropped != 1 || len(lg.Entries) != 4096 {
		t.Fatalf("log after 4,097 commands: dropped %d, %d entries; want 1 and 4096", lg.Dropped, len(lg.Entries))
	}
	if e := lg.Entries[0]; e.Command.Op != testbench.OpStep || e.Cycle != 0 {
		t.Errorf("oldest kept entry = %+v, want the first step at cycle 0", e)
	}
	if e := lg.Entries[4095]; e.Command.Op != testbench.OpPeek || e.Cycle != 4095 {
		t.Errorf("newest entry = %+v, want the peek at cycle 4095", e)
	}
}

// TestClientWaitExactCycle exercises the server-side wait: the condition
// travels the wire as one command, rides the engine's early-stop watch,
// and the session halts at the exact cycle the condition first holds — no
// chunk overshoot — with one HTTP round-trip per wait. A never-true
// condition times out after exactly maxCycles, answering 422 with the
// budget consumed.
func TestClientWaitExactCycle(t *testing.T) {
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
	defer sess.Close(ctx)
	if _, err := sess.Do(ctx, client.NewScript().Poke("step", 1)); err != nil {
		t.Fatal(err)
	}
	// count samples at settle: after n cycles it reads n-1. The condition
	// count >= 10 first holds at n = 11, and the wait must stop exactly
	// there, observing 10 — not the 15 a chunked client-side poll with
	// chunk = 8 used to report.
	v, err := sess.Wait(ctx, 0, "count", &testbench.Cond{Test: testbench.CondGeq, Value: 10}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if v != 10 {
		t.Errorf("Wait observed %d, want exactly 10", v)
	}
	resp, err := sess.Do(ctx, client.NewScript().Peek("count"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cycle != 11 {
		t.Errorf("cycle after wait = %d, want exactly 11 (no chunk overshoot)", resp.Cycle)
	}

	// A second wait resumes from the session's state and again stops at the
	// first accepting cycle.
	v, err = sess.Wait(ctx, 0, "count", &testbench.Cond{Test: testbench.CondEq, Value: 20}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if v != 20 {
		t.Errorf("second Wait observed %d, want 20", v)
	}
	if resp, err = sess.Do(ctx, client.NewScript().Peek("count")); err != nil {
		t.Fatal(err)
	}
	if resp.Cycle != 21 {
		t.Errorf("cycle after second wait = %d, want 21", resp.Cycle)
	}

	// Timeout: an impossible condition consumes exactly the budget and
	// surfaces the server's command error.
	var apiErr *client.APIError
	if _, err := sess.Wait(ctx, 0, "count", &testbench.Cond{Test: testbench.CondLt, Value: 5}, 12); !errors.As(err, &apiErr) || apiErr.Status != 422 {
		t.Fatalf("impossible condition answered %v, want 422", err)
	}
	if resp, err = sess.Do(ctx, client.NewScript().Peek("count")); err != nil {
		t.Fatal(err)
	}
	if resp.Cycle != 33 {
		t.Errorf("cycle after timed-out wait = %d, want 33 (21 + the 12-cycle budget)", resp.Cycle)
	}

	// The wire validator rejects a wait beyond the server's per-command
	// budget outright.
	if _, err := sess.Wait(ctx, 0, "count", nil, 2_000_000); !errors.As(err, &apiErr) || apiErr.Status != 422 {
		t.Fatalf("over-budget wait answered %v, want 422", err)
	}
}

// TestOverBudgetCommands: every cycle-taking command is held to the
// server's per-command budget by one check before it runs. An over-budget
// step, transact, handshake or wait answers 422, keeps the outcomes of the
// commands before it, and advances no cycles of its own.
func TestOverBudgetCommands(t *testing.T) {
	const budget = 1_000_000
	_, c := newTestService(t, server.Config{})
	ctx := context.Background()
	cr, err := c.Compile(ctx, counterSrc, server.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		add  func(*client.Script) *client.Script
	}{
		{"step", func(s *client.Script) *client.Script { return s.Step(budget + 1) }},
		{"transact", func(s *client.Script) *client.Script {
			return s.Transact(map[string]uint64{"step": 2}, "count", nil, budget+1)
		}},
		{"handshake", func(s *client.Script) *client.Script { return s.Handshake("step", nil, "count", budget+1) }},
		{"wait", func(s *client.Script) *client.Script { return s.Wait("count", nil, budget+1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sess, err := c.NewSession(ctx, cr.Hash, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close(ctx)
			// The budget itself is allowed: the prefix steps exactly budget.
			resp, err := sess.Do(ctx, tc.add(client.NewScript().Poke("step", 1).Step(budget)))
			var apiErr *client.APIError
			if !errors.As(err, &apiErr) || apiErr.Status != 422 {
				t.Fatalf("over-budget %s answered %v, want 422", tc.name, err)
			}
			if resp == nil || len(resp.Outcomes) != 2 || resp.Cycle != budget {
				t.Fatalf("over-budget %s: response %+v, want the 2-command prefix at cycle %d", tc.name, resp, budget)
			}
			if !strings.Contains(resp.Error, "exceed the per-command budget") {
				t.Errorf("over-budget %s: error %q does not name the budget", tc.name, resp.Error)
			}
			after, err := sess.Do(ctx, client.NewScript().Peek("count"))
			if err != nil || after.Cycle != budget {
				t.Fatalf("after the rejected %s: %+v, %v; want the session usable at cycle %d", tc.name, after, err, budget)
			}
		})
	}
}

// TestCompileOptionsShareCacheEntry: equal artifacts, one cache entry. The
// wire options are exactly the compile options that change what is built, so
// the same source posted with the defaults spelled out is one compile, one
// entry, one pool. It exists because of what the parent of this test's commit
// did with {"waveform":true}: accepted it, compiled the source a second time
// into a second entry with a second pool — and that entry's WriteOIM was
// byte-identical to the first, since the option only forced off a pass that
// was never on. A field that names no compile option now answers 400 naming
// itself, by the strict decoding every request body gets; "batch_workers" is
// one, since a batch's worker count changes nothing the compiler builds.
func TestCompileOptionsShareCacheEntry(t *testing.T) {
	srv := server.New(server.Config{})
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	post := func(options string) (int, string) {
		t.Helper()
		src, _ := json.Marshal(counterSrc)
		resp, err := http.Post(ts.URL+"/designs", "application/json",
			strings.NewReader(fmt.Sprintf(`{"source":%s,"options":%s}`, src, options)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	var hashes []string
	for i, options := range []string{`{}`, `{"kernel":"PSU"}`, `{"partitions":0}`} {
		status, body := post(options)
		var cr server.CompileResponse
		if err := json.Unmarshal([]byte(body), &cr); err != nil {
			t.Fatalf("%s: %v in %s", options, err, body)
		}
		want := http.StatusOK // every post after the first is a cache hit
		if i == 0 {
			want = http.StatusCreated
		}
		if status != want || cr.Cached != (i > 0) {
			t.Errorf("%s answered %d cached=%v, want %d cached=%v", options, status, cr.Cached, want, i > 0)
		}
		hashes = append(hashes, cr.Hash)
	}
	if hashes[0] == "" || len(slices.Compact(hashes)) != 1 {
		t.Errorf("the defaults spelled out name different designs: %v", hashes)
	}
	for field, options := range map[string]string{
		"waveform":      `{"waveform":true}`,
		"strategy":      `{"strategy":"round-robin"}`,
		"batch_workers": `{"batch_workers":1}`,
	} {
		if status, body := post(options); status != http.StatusBadRequest || !strings.Contains(body, field) {
			t.Errorf("%s answered %d %s, want 400 naming %q", options, status, body, field)
		}
	}
	// A stray closing brace after the body is trailing data.
	if status, body := post(`{}}`); status != http.StatusBadRequest || !strings.Contains(body, "trailing") {
		t.Errorf("a body with a stray } answered %d %s, want 400", status, body)
	}

	m, err := client.New(ts.URL).Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.Cache.Misses != 1 || m.Cache.Hits != 2 || m.Cache.Entries != 1 || len(m.Pools) != 1 {
		t.Errorf("cache %+v with %d pools, want 1 miss, 2 hits, 1 entry, 1 pool", m.Cache, len(m.Pools))
	}
}
