package server

import (
	"container/list"
	"context"
	"fmt"
	"sync"
	"time"

	"rteaal/internal/faultinject"
	"rteaal/sim"
)

// designCache is the cross-user compiled-design cache: *sim.Design values
// keyed by sim.SourceHash, bounded by an LRU, with single-flight
// deduplication so N clients posting the same source concurrently pay for
// exactly one compile. An entry holds no engines, so evicting it closes
// nothing: leases already open on it keep running until they are released.
type designCache struct {
	mu        sync.Mutex
	max       int
	poolCap   int
	failLimit int           // consecutive compile failures that trip a breaker
	cooldown  time.Duration // how long a tripped breaker short-circuits
	now       func() time.Time
	entries   map[string]*cacheEntry
	lru       *list.List // of *cacheEntry; front = most recently used
	inflight  map[string]*compileCall
	breakers  map[string]*breakerState

	hits, misses, evictions, dedups, trips uint64
}

// breakerState tracks one design hash's compile-failure circuit breaker.
// After failLimit consecutive failures the breaker opens: compiles of that
// hash short-circuit with errCircuitOpen until the cooldown elapses, at
// which point one probe compile is allowed through (half-open); its failure
// re-opens the breaker, its success clears it.
type breakerState struct {
	fails     int
	openUntil time.Time
}

// errCircuitOpen is the short-circuit answer for a tripped breaker,
// carrying the Retry-After the client should honor.
type errCircuitOpen struct {
	retryAfter time.Duration
}

func (e errCircuitOpen) Error() string {
	return fmt.Sprintf("compile circuit open after repeated failures; retry in %s", e.retryAfter.Round(time.Second))
}

// cacheEntry is one cached design plus the capacity its scalar leases hold.
type cacheEntry struct {
	hash   string
	design *sim.Design
	info   DesignInfo
	elem   *list.Element

	// slots bounds the design's live scalar leases (Config.PoolCap): a lease
	// holds one from create until release. Batches hold none.
	slots chan struct{}

	mu              sync.Mutex
	live, highWater int
	checkouts       uint64
}

// compileCall is one in-flight compile other callers join.
type compileCall struct {
	done  chan struct{}
	entry *cacheEntry
	err   error
}

func newDesignCache(maxEntries, poolCap, failLimit int, cooldown time.Duration, now func() time.Time) *designCache {
	return &designCache{
		max:       maxEntries,
		poolCap:   poolCap,
		failLimit: failLimit,
		cooldown:  cooldown,
		now:       now,
		entries:   make(map[string]*cacheEntry),
		lru:       list.New(),
		inflight:  make(map[string]*compileCall),
		breakers:  make(map[string]*breakerState),
	}
}

// lookup returns the cached entry for hash, counting a hit and refreshing
// its LRU position, or (nil, false) without counting a miss — lookup
// misses are "unknown design" errors, not compile demand.
func (c *designCache) lookup(hash string) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[hash]
	if !ok {
		return nil, false
	}
	c.hits++
	c.lru.MoveToFront(e.elem)
	return e, true
}

// getOrCompile returns the entry for hash, compiling it with compile at
// most once across all concurrent callers. cached reports whether the
// caller was served without running its own compile (an existing entry or
// a joined in-flight one). A joiner whose ctx expires abandons the wait
// with ctx.Err(); the compile itself keeps running for the other joiners.
// A panic inside compile is recovered into a *panicFault error — the
// single-flight channel always closes, so joiners can never hang on a
// crashed compile — and counts as a breaker failure like any other.
func (c *designCache) getOrCompile(ctx context.Context, hash string, compile func() (*sim.Design, error)) (e *cacheEntry, cached bool, err error) {
	c.mu.Lock()
	if e, ok := c.entries[hash]; ok {
		c.hits++
		c.lru.MoveToFront(e.elem)
		c.mu.Unlock()
		return e, true, nil
	}
	if call, ok := c.inflight[hash]; ok {
		// Another client is compiling this very design: join it.
		c.dedups++
		c.mu.Unlock()
		select {
		case <-call.done:
			return call.entry, true, call.err
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
	if err := c.breakerCheckLocked(hash); err != nil {
		c.mu.Unlock()
		return nil, false, err
	}
	c.misses++
	call := &compileCall{done: make(chan struct{})}
	c.inflight[hash] = call
	c.mu.Unlock()

	d, err := compileRecover(compile)

	c.mu.Lock()
	delete(c.inflight, hash)
	if err == nil {
		call.entry = c.insertLocked(hash, d)
		c.evictOverflowLocked()
	}
	c.breakerRecordLocked(hash, err)
	call.err = err
	c.mu.Unlock()
	close(call.done)
	return call.entry, false, err
}

// compileRecover runs the compile inside a recovery boundary (plus the
// fault-injection points tests arm to exercise it).
func compileRecover(compile func() (*sim.Design, error)) (d *sim.Design, err error) {
	defer func() {
		if r := recover(); r != nil {
			d, err = nil, recoveredPanic("compile", r)
		}
	}()
	if ferr := faultinject.Fire(faultinject.CompilePanic); ferr != nil {
		panic(ferr)
	}
	if ferr := faultinject.Fire(faultinject.CompileFail); ferr != nil {
		return nil, ferr
	}
	return compile()
}

// breakerCheckLocked short-circuits a compile whose breaker is open. Past
// the cooldown the breaker goes half-open: this probe is allowed through,
// and breakerRecordLocked decides whether it re-opens or clears.
func (c *designCache) breakerCheckLocked(hash string) error {
	if c.failLimit <= 0 {
		return nil
	}
	b := c.breakers[hash]
	if b == nil || b.fails < c.failLimit {
		return nil
	}
	if remain := b.openUntil.Sub(c.now()); remain > 0 {
		return errCircuitOpen{retryAfter: remain}
	}
	return nil
}

// breakerRecordLocked accounts one compile attempt's result against the
// hash's breaker: failures accumulate and (re-)open it at the limit,
// success clears it.
func (c *designCache) breakerRecordLocked(hash string, err error) {
	if c.failLimit <= 0 {
		return
	}
	if err == nil {
		delete(c.breakers, hash)
		return
	}
	b := c.breakers[hash]
	if b == nil {
		b = &breakerState{}
		c.breakers[hash] = b
	}
	b.fails++
	if b.fails >= c.failLimit {
		b.openUntil = c.now().Add(c.cooldown)
		c.trips++
	}
}

// breakerStats reports lifetime trips and how many hashes are open now.
func (c *designCache) breakerStats() (trips uint64, open int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	for _, b := range c.breakers {
		if b.fails >= c.failLimit && b.openUntil.After(now) {
			open++
		}
	}
	return c.trips, open
}

func (c *designCache) insertLocked(hash string, d *sim.Design) *cacheEntry {
	st := d.Stats()
	e := &cacheEntry{
		hash:   hash,
		design: d,
		slots:  make(chan struct{}, c.poolCap),
		info: DesignInfo{
			Hash:      hash,
			Design:    st.Design,
			Ops:       st.Ops,
			Layers:    st.Layers,
			Registers: st.Registers,
			Inputs:    d.Inputs(),
			Outputs:   d.Outputs(),
			Signals:   d.Signals(),
		},
	}
	e.elem = c.lru.PushFront(e)
	c.entries[hash] = e
	return e
}

// evictOverflowLocked drops least-recently-used entries past the bound.
func (c *designCache) evictOverflowLocked() {
	for len(c.entries) > c.max {
		e := c.lru.Remove(c.lru.Back()).(*cacheEntry)
		delete(c.entries, e.hash)
		c.evictions++
	}
}

// acquire takes one of the design's capacity slots for a scalar lease. With
// wait == 0 it never blocks; otherwise it waits up to wait, bounded by ctx,
// for a lease to release one. It reports whether a slot was taken.
func (e *cacheEntry) acquire(ctx context.Context, wait time.Duration) bool {
	select {
	case e.slots <- struct{}{}:
	default:
		if wait <= 0 {
			return false
		}
		wctx, cancel := context.WithTimeout(ctx, wait)
		defer cancel()
		select {
		case e.slots <- struct{}{}:
		case <-wctx.Done():
			return false
		}
	}
	e.mu.Lock()
	e.live++
	e.highWater = max(e.highWater, e.live)
	e.checkouts++
	e.mu.Unlock()
	return true
}

// releaseSlot gives back a slot taken by acquire.
func (e *cacheEntry) releaseSlot() {
	e.mu.Lock()
	e.live--
	e.mu.Unlock()
	<-e.slots
}

// stats snapshots the cache counters plus every entry's lease occupancy.
func (c *designCache) stats() (CacheMetrics, map[string]PoolMetrics) {
	c.mu.Lock()
	cm := CacheMetrics{
		Entries:         len(c.entries),
		Max:             c.max,
		Hits:            c.hits,
		Misses:          c.misses,
		Evictions:       c.evictions,
		InflightDeduped: c.dedups,
	}
	pm := make(map[string]PoolMetrics, len(c.entries))
	for h, e := range c.entries {
		e.mu.Lock()
		pm[h] = PoolMetrics{Cap: cap(e.slots), Live: e.live, HighWater: e.highWater, Checkouts: e.checkouts}
		e.mu.Unlock()
	}
	c.mu.Unlock()
	return cm, pm
}
