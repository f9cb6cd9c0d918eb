package server_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"os"
	"sync"
	"testing"
	"time"

	"rteaal/internal/faultinject"
	"rteaal/internal/server"
	"rteaal/sim/client"
)

// TestLeaseLifecycleModel drives random open/run/delete/sweep/panic steps
// against a small model of the lease lifecycle and checks the server after
// every step: per design, live scalar leases never exceed the capacity and
// equal the model's open scalar leases; a create answers 429 exactly when
// the model says the design or the client is full; every lease's engine is
// its own (its cycle count is the model's); and a deleted, evicted or
// quarantined id answers 404 (or 410). Closing the server returns the
// goroutine count to its baseline.
func TestLeaseLifecycleModel(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			checkGoroutineLeaks(t)
			t.Cleanup(faultinject.Reset)
			log.SetOutput(io.Discard) // each injected panic logs its stack
			t.Cleanup(func() { log.SetOutput(os.Stderr) })
			runLifecycleModel(t, rand.New(rand.NewSource(seed)), 200)
		})
	}
}

// pairSrc has two registers, so a 2-partition compile really runs two
// partitions, each on a worker goroutine of the session.
const pairSrc = `
circuit Pair :
  module Pair :
    input clock : Clock
    input step : UInt<4>
    output a : UInt<8>
    output b : UInt<8>
    reg x : UInt<8>, clock
    reg y : UInt<8>, clock
    x <= tail(add(x, pad(step, 8)), 1)
    y <= tail(add(y, UInt<8>(1)), 1)
    a <= x
    b <= y
`

// modelLease is the model's view of one open lease.
type modelLease struct {
	sess     *client.Session
	design   int
	client   int
	lanes    int
	cycle    int64
	lastUsed time.Time
}

func runLifecycleModel(t *testing.T, rng *rand.Rand, steps int) {
	const (
		poolCap   = 2
		perClient = 3
		ttl       = time.Minute
	)
	var mu sync.Mutex
	now := time.Unix(1_800_000_000, 0)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }

	srv, base := newTestService(t, server.Config{
		PoolCap:              poolCap,
		MaxSessionsPerClient: perClient,
		SessionTTL:           ttl,
		Clock:                clock,
	})
	ctx := context.Background()
	clients := []*client.Client{
		client.New(base.BaseURL(), client.WithClientID("a"), client.WithoutRetry()),
		client.New(base.BaseURL(), client.WithClientID("b"), client.WithoutRetry()),
	}
	// Two designs: the counter, and a partitioned pair whose sessions own
	// worker goroutines that must stop on release.
	var hashes []string
	for _, d := range []struct {
		src  string
		opts server.CompileOptions
	}{{counterSrc, server.CompileOptions{}}, {pairSrc, server.CompileOptions{Partitions: 2}}} {
		cr, err := base.Compile(ctx, d.src, d.opts)
		if err != nil {
			t.Fatal(err)
		}
		hashes = append(hashes, cr.Hash)
	}

	// seen counts what each step kind did, so a seed that never reaches a
	// path fails instead of passing vacuously.
	seen := map[string]int{}
	var open []*modelLease
	var dead []*client.Session // deleted, evicted or quarantined
	scalars := func(d int) (n int) {
		for _, l := range open {
			if l.design == d && l.lanes == 0 {
				n++
			}
		}
		return n
	}
	perClientOpen := func(c int) (n int) {
		for _, l := range open {
			if l.client == c {
				n++
			}
		}
		return n
	}
	remove := func(i int, why string) {
		seen[why]++
		dead = append(dead, open[i].sess)
		open = append(open[:i], open[i+1:]...)
	}

	for step := 0; step < steps; step++ {
		var apiErr *client.APIError
		switch op := rng.Intn(10); {
		case op < 4: // open
			d, c, lanes := rng.Intn(len(hashes)), rng.Intn(len(clients)), 2*rng.Intn(2)
			full := perClientOpen(c) >= perClient || (lanes == 0 && scalars(d) >= poolCap)
			sess, err := clients[c].NewSession(ctx, hashes[d], lanes)
			switch {
			case full && (!errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests):
				t.Fatalf("step %d: open on a full model answered %v, want 429", step, err)
			case !full && err != nil:
				t.Fatalf("step %d: open (design %d, client %d, lanes %d) failed: %v", step, d, c, lanes, err)
			case full:
				seen["429"]++
			default:
				seen["open"]++
				open = append(open, &modelLease{sess: sess, design: d, client: c, lanes: lanes, lastUsed: clock()})
			}
		case op < 6: // run, on a live lease or (sometimes) a dead id
			if len(dead) > 0 && (len(open) == 0 || rng.Intn(4) == 0) {
				s := dead[rng.Intn(len(dead))]
				if _, err := s.Do(ctx, client.NewScript().Step(1)); !errors.As(err, &apiErr) ||
					(apiErr.Status != http.StatusNotFound && apiErr.Status != http.StatusGone) {
					t.Fatalf("step %d: run on dead lease %s answered %v, want 404/410", step, s.ID, err)
				}
				seen["dead run"]++
				continue
			}
			if len(open) == 0 {
				continue
			}
			l := open[rng.Intn(len(open))]
			k := int64(1 + rng.Intn(8))
			resp, err := l.sess.Do(ctx, client.NewScript().Step(k))
			if err != nil {
				t.Fatalf("step %d: run on %s: %v", step, l.sess.ID, err)
			}
			l.cycle += k
			seen["run"]++
			l.lastUsed = clock()
			if resp.Cycle != l.cycle {
				t.Fatalf("step %d: lease %s at cycle %d, model says %d: its engine is not its own", step, l.sess.ID, resp.Cycle, l.cycle)
			}
		case op < 7: // delete
			if len(open) == 0 {
				continue
			}
			i := rng.Intn(len(open))
			if err := open[i].sess.Close(ctx); err != nil {
				t.Fatalf("step %d: delete %s: %v", step, open[i].sess.ID, err)
			}
			remove(i, "delete")
		case op < 9: // advance the clock and sweep
			mu.Lock()
			now = now.Add(time.Duration(rng.Int63n(int64(ttl * 3 / 2))))
			cutoff := now.Add(-ttl)
			mu.Unlock()
			want := 0
			for i := len(open) - 1; i >= 0; i-- {
				if !open[i].lastUsed.After(cutoff) {
					remove(i, "evict")
					want++
				}
			}
			if got := srv.Sweep(); got != want {
				t.Fatalf("step %d: Sweep evicted %d leases, model says %d", step, got, want)
			}
		default: // a run that panics quarantines its lease
			if len(open) == 0 {
				continue
			}
			i := rng.Intn(len(open))
			disarm := faultinject.Arm(faultinject.RunPanic, faultinject.Always(faultinject.Panicf("injected run crash")))
			_, err := open[i].sess.Do(ctx, client.NewScript().Step(1))
			disarm()
			if !errors.As(err, &apiErr) || apiErr.Status != http.StatusInternalServerError || apiErr.Kind != server.KindPanic {
				t.Fatalf("step %d: panicked run answered %v, want 500 kind %q", step, err, server.KindPanic)
			}
			remove(i, "quarantine")
		}

		m, err := base.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if m.Sessions.Live != len(open) {
			t.Fatalf("step %d: %d live leases, model has %d", step, m.Sessions.Live, len(open))
		}
		for d, h := range hashes {
			pm := m.Pools[h]
			if pm.Live > pm.Cap || pm.Live != scalars(d) {
				t.Fatalf("step %d: design %d holds %d of %d slots, model has %d scalar leases", step, d, pm.Live, pm.Cap, scalars(d))
			}
		}
	}

	for _, path := range []string{"open", "429", "run", "dead run", "delete", "evict", "quarantine"} {
		if seen[path] == 0 {
			t.Errorf("no step took the %q path: %v", path, seen)
		}
	}
	t.Logf("steps by path: %v", seen)

	srv.Close()
	m, err := base.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for d, h := range hashes {
		if pm := m.Pools[h]; pm.Live != 0 || pm.HighWater > poolCap {
			t.Errorf("design %d after Close: %+v", d, pm)
		}
	}
	if m.Sessions.Live != 0 {
		t.Errorf("%d leases survived Close", m.Sessions.Live)
	}
}
