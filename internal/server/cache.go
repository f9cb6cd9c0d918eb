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
// exactly one compile. Each entry owns the elastic session pool serving
// that design; evicting an entry closes its pool (idle sessions drain,
// checked-out sessions retire on Put).
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

// cacheEntry is one cached design plus its serving pool.
type cacheEntry struct {
	hash   string
	design *sim.Design
	info   DesignInfo
	pool   *sim.Pool
	elem   *list.Element
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
	var evict []*cacheEntry
	if err == nil {
		call.entry, err = c.insertLocked(hash, d)
		if err == nil {
			evict = c.evictOverflowLocked()
		}
	}
	c.breakerRecordLocked(hash, err)
	call.err = err
	c.mu.Unlock()
	close(call.done)
	// Pool teardown can join partition workers; never do it under the lock.
	for _, old := range evict {
		old.pool.Close()
	}
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

func (c *designCache) insertLocked(hash string, d *sim.Design) (*cacheEntry, error) {
	pool, err := sim.NewPool(d, c.poolCap)
	if err != nil {
		return nil, err
	}
	pool.SetClock(c.now)
	st := d.Stats()
	e := &cacheEntry{
		hash:   hash,
		design: d,
		pool:   pool,
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
	return e, nil
}

// evictOverflowLocked pops least-recently-used entries past the bound and
// returns them for teardown outside the lock.
func (c *designCache) evictOverflowLocked() []*cacheEntry {
	var evict []*cacheEntry
	for len(c.entries) > c.max {
		oldest := c.lru.Back()
		if oldest == nil {
			break
		}
		e := oldest.Value.(*cacheEntry)
		c.lru.Remove(oldest)
		delete(c.entries, e.hash)
		c.evictions++
		evict = append(evict, e)
	}
	return evict
}

// reapIdle shrinks every design's pool: sessions idle past ttl close and
// return their creation budget. Reports total sessions reaped.
func (c *designCache) reapIdle(ttl time.Duration) int {
	c.mu.Lock()
	pools := make([]*sim.Pool, 0, len(c.entries))
	for _, e := range c.entries {
		pools = append(pools, e.pool)
	}
	c.mu.Unlock()
	total := 0
	for _, p := range pools {
		total += p.ReapIdle(ttl)
	}
	return total
}

// stats snapshots the cache counters plus every entry's pool occupancy.
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
	pools := make(map[string]*sim.Pool, len(c.entries))
	for h, e := range c.entries {
		pools[h] = e.pool
	}
	c.mu.Unlock()
	pm := make(map[string]PoolMetrics, len(pools))
	for h, p := range pools {
		st := p.Stats()
		pm[h] = PoolMetrics{
			Cap:        st.Cap,
			Idle:       st.Idle,
			CheckedOut: st.CheckedOut,
			Live:       st.Live,
			HighWater:  st.HighWater,
			Checkouts:  st.Checkouts,
			Reaped:     st.Reaped,
			Discarded:  st.Discarded,
		}
	}
	return cm, pm
}

// close tears the whole cache down: every pool closes, every entry drops.
func (c *designCache) close() {
	c.mu.Lock()
	entries := make([]*cacheEntry, 0, len(c.entries))
	for _, e := range c.entries {
		entries = append(entries, e)
	}
	c.entries = make(map[string]*cacheEntry)
	c.lru.Init()
	c.mu.Unlock()
	for _, e := range entries {
		e.pool.Close()
	}
}
