// Command rteaal-serve runs the simulation-as-a-service HTTP endpoint: a
// cross-user compiled-design cache whose leases each mint their own engine
// (bounded per design and per client), driven through wire-framed testbench
// command batches.
//
//	rteaal-serve -addr :8382
//	rteaal-serve -addr :8382 -cache 32 -pool-cap 16 -session-ttl 10m
//
// Endpoints:
//
//	POST   /designs                  compile (or hit the cache); body {source, options}
//	GET    /designs/{hash}           cached design description
//	POST   /designs/{hash}/sessions  lease a session ({lanes: n} for a batch)
//	POST   /sessions/{id}/commands   execute a batched command list
//	GET    /sessions/{id}/log        recorded, replayable transaction log
//	DELETE /sessions/{id}            release the session
//	GET    /healthz                  liveness plus live design/session counts
//	GET    /readyz                   readiness (503 while draining)
//	GET    /metrics                  JSON counters (cache, sessions, pools, work, faults, latency)
//
// On SIGTERM/SIGINT the server drains gracefully: readiness fails and new
// work answers 503 with Retry-After while in-flight command lists finish
// (bounded by -drain-grace), then the listener shuts down. A second signal
// aborts the drain and exits immediately.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rteaal/internal/server"
)

func main() {
	addr := flag.String("addr", ":8382", "listen address")
	cache := flag.Int("cache", 16, "max cached compiled designs (LRU)")
	poolCap := flag.Int("pool-cap", 8, "max live scalar sessions per design")
	perClient := flag.Int("per-client", 8, "max concurrent sessions per client")
	sessionTTL := flag.Duration("session-ttl", 5*time.Minute, "evict sessions idle longer than this")
	sweep := flag.Duration("sweep", 15*time.Second, "maintenance sweep interval")
	requestTimeout := flag.Duration("request-timeout", 2*time.Minute, "per-request deadline (0 disables)")
	execTimeout := flag.Duration("exec-timeout", time.Minute, "per-command-list execution deadline (0 disables)")
	poolWait := flag.Duration("pool-wait", 0, "how long session creation waits for design capacity before answering 429 (0: fail fast)")
	drainGrace := flag.Duration("drain-grace", 20*time.Second, "how long shutdown waits for in-flight command lists")
	flag.Parse()

	// Flag zeros mean "disabled", which Config spells as negative (its own
	// zero means "default").
	disabledIsNegative := func(d time.Duration) time.Duration {
		if d == 0 {
			return -1
		}
		return d
	}

	srv := server.New(server.Config{
		CacheSize:            *cache,
		PoolCap:              *poolCap,
		MaxSessionsPerClient: *perClient,
		SessionTTL:           *sessionTTL,
		RequestTimeout:       disabledIsNegative(*requestTimeout),
		ExecTimeout:          disabledIsNegative(*execTimeout),
		PoolWait:             *poolWait,
	})

	// Janitor: evict abandoned sessions.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		t := time.NewTicker(*sweep)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				if leases := srv.Sweep(); leases > 0 {
					fmt.Fprintf(os.Stderr, "rteaal-serve: swept %d idle sessions\n", leases)
				}
			}
		}
	}()

	hs := &http.Server{Addr: *addr, Handler: srv, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		<-ctx.Done()
		// Re-arm the signals: a second SIGTERM/SIGINT kills the process
		// instead of waiting out the grace period.
		stop()
		fmt.Fprintf(os.Stderr, "rteaal-serve: draining (grace %s; signal again to abort)\n", *drainGrace)
		srv.BeginDrain()
		dctx, cancel := context.WithTimeout(context.Background(), *drainGrace)
		if err := srv.Drain(dctx); err != nil {
			fmt.Fprintln(os.Stderr, "rteaal-serve: drain grace expired with work in flight")
		}
		cancel()
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hs.Shutdown(shutCtx) //nolint:errcheck // exiting either way
		srv.Close()
	}()

	fmt.Fprintf(os.Stderr, "rteaal-serve: listening on %s\n", *addr)
	if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, "rteaal-serve:", err)
		os.Exit(1)
	}
}
