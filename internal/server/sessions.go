package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rteaal/internal/faultinject"
	"rteaal/sim"
)

// errClientLimit is the per-client elasticity bound: one tenant cannot
// hoard every session of a shared design. Mapped to 429 on the wire.
var errClientLimit = errors.New("server: per-client session limit reached")

// errLeaseGone marks a lease released or evicted while a request was in
// flight. Mapped to 410 on the wire.
var errLeaseGone = errors.New("server: session released")

// lease is one live remote session: a checked-out pooled session (or a
// dedicated multi-lane batch), its testbench, and the recorded transaction
// log. Command execution serialises on mu — the wire protocol promises
// in-order execution per session, never concurrent access to one engine.
type lease struct {
	id     string
	client string
	entry  *cacheEntry
	tb     *sim.Testbench
	sess   *sim.Session // pooled scalar/partitioned session; nil for batches
	batch  *sim.Batch   // multi-lane batch; nil for pooled sessions

	// abort asks an in-flight command batch to stop at its next chunk
	// boundary. release sets it before waiting on mu, so a DELETE (or TTL
	// eviction, or shutdown) of a session mid-run cancels the run instead
	// of queueing behind megacycles of simulation.
	abort atomic.Bool

	mu      sync.Mutex // serialises execution and release
	gone    bool       // released or evicted; engine no longer owned
	log     []LogEntry
	dropped int64
}

// release returns the lease's engine: pooled sessions go back to the pool
// (which retires them if it has closed), batches close their workers.
// An in-flight command batch is asked to cancel first (see abort); release
// then waits for it to unwind before reclaiming the engine. Idempotent
// under l.mu.
func (l *lease) release() {
	l.abort.Store(true)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.gone {
		return
	}
	l.gone = true
	if l.sess != nil {
		l.entry.pool.Put(l.sess)
	}
	if l.batch != nil {
		l.batch.Close()
	}
}

// sessionRegistry owns every live lease: creation against the per-client
// bound and the design's pool, lookup, touch-on-use, TTL-based eviction of
// abandoned leases, and release. The registry clock is injectable so tests
// drive eviction with a fake clock.
type sessionRegistry struct {
	maxPerClient int
	maxLanes     int
	ttl          time.Duration
	now          func() time.Time

	mu       sync.Mutex
	leases   map[string]*lease
	lastUsed map[string]time.Time
	byClient map[string]int
	nextID   uint64

	created, released, evicted, quarantined uint64
}

func newSessionRegistry(maxPerClient, maxLanes int, ttl time.Duration, now func() time.Time) *sessionRegistry {
	return &sessionRegistry{
		maxPerClient: maxPerClient,
		maxLanes:     maxLanes,
		ttl:          ttl,
		now:          now,
		leases:       make(map[string]*lease),
		lastUsed:     make(map[string]time.Time),
		byClient:     make(map[string]int),
	}
}

// create leases a new session of entry's design for client. lanes == 0
// checks a scalar session out of the design's elastic pool; lanes > 0
// mints a dedicated multi-lane batch. With wait == 0 pool saturation
// surfaces immediately as sim.ErrPoolExhausted (the 429 path); wait > 0
// blocks up to that long (bounded additionally by ctx) for a session to
// free up before giving up the same way. Instantiation runs inside a
// recovery boundary: a panic minting the engine unwinds as a *panicFault
// with the per-client reservation returned, never a leaked slot.
func (r *sessionRegistry) create(ctx context.Context, entry *cacheEntry, client string, lanes int, wait time.Duration) (_ *lease, err error) {
	if lanes < 0 || lanes > r.maxLanes {
		return nil, fmt.Errorf("server: lanes must be in [0,%d], got %d", r.maxLanes, lanes)
	}
	r.mu.Lock()
	if r.byClient[client] >= r.maxPerClient {
		r.mu.Unlock()
		return nil, errClientLimit
	}
	r.byClient[client]++ // reserve the slot before the pool work
	r.mu.Unlock()

	reserved := true
	unreserve := func() {
		r.mu.Lock()
		r.byClient[client]--
		if r.byClient[client] == 0 {
			delete(r.byClient, client)
		}
		r.mu.Unlock()
	}
	defer func() {
		if rec := recover(); rec != nil {
			err = recoveredPanic("session open", rec)
		}
		if err != nil && reserved {
			unreserve()
		}
	}()

	if ferr := faultinject.Fire(faultinject.SessionPanic); ferr != nil {
		panic(ferr)
	}
	if ferr := faultinject.Fire(faultinject.PoolExhausted); ferr != nil {
		return nil, sim.ErrPoolExhausted
	}

	l := &lease{client: client, entry: entry}
	if lanes > 0 {
		l.batch, err = entry.design.NewBatch(lanes)
		if err == nil {
			l.tb = l.batch.Testbench()
		}
	} else {
		if wait > 0 {
			wctx, cancel := context.WithTimeout(ctx, wait)
			l.sess, err = entry.pool.Get(wctx)
			cancel()
			if err != nil && (errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)) {
				// The bounded wait elapsed without a free session: same
				// backpressure signal as the non-blocking path.
				err = sim.ErrPoolExhausted
			}
		} else {
			l.sess, err = entry.pool.TryGet()
		}
		if err == nil {
			l.tb = l.sess.Testbench()
		}
	}
	if err != nil {
		return nil, err
	}

	r.mu.Lock()
	r.nextID++
	l.id = fmt.Sprintf("s-%08x", r.nextID)
	r.leases[l.id] = l
	r.lastUsed[l.id] = r.now()
	r.created++
	r.mu.Unlock()
	reserved = false // ownership transferred to the registered lease
	return l, nil
}

// get returns a live lease and refreshes its idle deadline.
func (r *sessionRegistry) get(id string) (*lease, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	l, ok := r.leases[id]
	if ok {
		r.lastUsed[id] = r.now()
	}
	return l, ok
}

// removeLocked unlinks a lease from the maps (not the engine).
func (r *sessionRegistry) removeLocked(l *lease) {
	delete(r.leases, l.id)
	delete(r.lastUsed, l.id)
	r.byClient[l.client]--
	if r.byClient[l.client] == 0 {
		delete(r.byClient, l.client)
	}
}

// forget unlinks a quarantined lease from the registry without touching
// its engine: the caller has already decided the engine is suspect and
// disposed of it (Pool.Discard / Batch.Close) under the lease's own mu.
// Safe to call for a lease that a concurrent release/reap already removed.
func (r *sessionRegistry) forget(l *lease) {
	r.mu.Lock()
	if _, ok := r.leases[l.id]; ok {
		r.removeLocked(l)
		r.quarantined++
	}
	r.mu.Unlock()
}

// release ends a lease explicitly (DELETE /sessions/{id}).
func (r *sessionRegistry) release(id string) bool {
	r.mu.Lock()
	l, ok := r.leases[id]
	if ok {
		r.removeLocked(l)
		r.released++
	}
	r.mu.Unlock()
	if !ok {
		return false
	}
	l.release()
	return true
}

// reapExpired evicts every lease idle past the TTL, returning engines to
// their pools. This is what makes the serving layer elastic against
// clients that vanish without a DELETE.
func (r *sessionRegistry) reapExpired() int {
	cutoff := r.now().Add(-r.ttl)
	r.mu.Lock()
	var expired []*lease
	for id, l := range r.leases {
		if !r.lastUsed[id].After(cutoff) {
			expired = append(expired, l)
		}
	}
	for _, l := range expired {
		r.removeLocked(l)
		r.evicted++
	}
	r.mu.Unlock()
	// Engine teardown outside the registry lock: release waits on each
	// lease's own mu, so an in-flight command batch finishes first.
	for _, l := range expired {
		l.release()
	}
	return len(expired)
}

// closeAll releases every lease (server shutdown).
func (r *sessionRegistry) closeAll() {
	r.mu.Lock()
	all := make([]*lease, 0, len(r.leases))
	for _, l := range r.leases {
		all = append(all, l)
	}
	r.leases = make(map[string]*lease)
	r.lastUsed = make(map[string]time.Time)
	r.byClient = make(map[string]int)
	r.mu.Unlock()
	for _, l := range all {
		l.release()
	}
}

// quarantineCount reports leases torn down via forget (for FaultMetrics).
func (r *sessionRegistry) quarantineCount() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.quarantined
}

// stats snapshots the session counters.
func (r *sessionRegistry) stats() SessionMetrics {
	r.mu.Lock()
	defer r.mu.Unlock()
	return SessionMetrics{
		Live:     len(r.leases),
		Clients:  len(r.byClient),
		Created:  r.created,
		Released: r.released,
		Evicted:  r.evicted,
	}
}
