package server

import (
	"container/list"
	"context"
	"errors"
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
//
// A compile is a pure function of its source and options, so a failed
// compile is cached too: its entry holds only the error text, takes a place
// in the same LRU, and a repeat is a hit answered with the same error. A
// recovered panic is a fault of the program, not of the source, and is
// never cached.
type designCache struct {
	mu       sync.Mutex
	max      int
	poolCap  int
	entries  map[string]*cacheEntry
	lru      *list.List // of *cacheEntry; front = most recently used
	inflight map[string]*compileCall

	hits, misses, evictions, dedups uint64
}

// cacheEntry is one cached design plus the capacity its scalar leases hold,
// or one failed compile (err set, design nil).
type cacheEntry struct {
	hash   string
	design *sim.Design
	err    error
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

func newDesignCache(maxEntries, poolCap int) *designCache {
	return &designCache{
		max:      maxEntries,
		poolCap:  poolCap,
		entries:  make(map[string]*cacheEntry),
		lru:      list.New(),
		inflight: make(map[string]*compileCall),
	}
}

// lookup returns the cached design for hash, counting a hit and refreshing
// its LRU position, or (nil, false) without counting a miss — lookup
// misses are "unknown design" errors, not compile demand. A failed compile
// is no design: lookup does not return it.
func (c *designCache) lookup(hash string) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[hash]
	if !ok || e.err != nil {
		return nil, false
	}
	c.hits++
	c.lru.MoveToFront(e.elem)
	return e, true
}

// getOrCompile returns the entry for hash, compiling it with compile at
// most once across all concurrent callers. cached reports whether the
// caller was served without running its own compile (an existing entry or
// a joined in-flight one); a cached failure answers its error again. A
// joiner whose ctx expires abandons the wait with ctx.Err(); the compile
// itself keeps running for the other joiners. A panic inside compile is
// recovered into a *panicFault error, which is not cached — the
// single-flight channel always closes, so joiners can never hang on a
// crashed compile.
func (c *designCache) getOrCompile(ctx context.Context, hash string, compile func() (*sim.Design, error)) (e *cacheEntry, cached bool, err error) {
	c.mu.Lock()
	if e, ok := c.entries[hash]; ok {
		c.hits++
		c.lru.MoveToFront(e.elem)
		c.mu.Unlock()
		if e.err != nil {
			return nil, true, e.err
		}
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
	c.misses++
	call := &compileCall{done: make(chan struct{})}
	c.inflight[hash] = call
	c.mu.Unlock()

	d, err := compileRecover(compile)

	c.mu.Lock()
	delete(c.inflight, hash)
	switch {
	case err == nil:
		call.entry = c.insertLocked(c.newEntry(hash, d))
	case !isPanicErr(err):
		c.insertLocked(&cacheEntry{hash: hash, err: errors.New(err.Error())})
	}
	call.err = err
	c.mu.Unlock()
	close(call.done)
	return call.entry, false, err
}

// compileRecover runs the compile inside a recovery boundary (plus the
// fault-injection point tests arm to exercise it).
func compileRecover(compile func() (*sim.Design, error)) (d *sim.Design, err error) {
	defer func() {
		if r := recover(); r != nil {
			d, err = nil, recoveredPanic("compile", r)
		}
	}()
	if ferr := faultinject.Fire(faultinject.CompilePanic); ferr != nil {
		panic(ferr)
	}
	return compile()
}

// newEntry describes a compiled design as a cache entry.
func (c *designCache) newEntry(hash string, d *sim.Design) *cacheEntry {
	st := d.Stats()
	return &cacheEntry{
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
}

// insertLocked adds e as the most recently used entry and drops the least
// recently used ones past the bound, designs and failures alike.
func (c *designCache) insertLocked(e *cacheEntry) *cacheEntry {
	e.elem = c.lru.PushFront(e)
	c.entries[e.hash] = e
	for len(c.entries) > c.max {
		old := c.lru.Remove(c.lru.Back()).(*cacheEntry)
		delete(c.entries, old.hash)
		c.evictions++
	}
	return e
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

// designs counts the compiled designs, not cached failures: what /healthz
// and /readyz report, read under c.mu alone.
func (c *designCache) designs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, e := range c.entries {
		if e.err == nil {
			n++
		}
	}
	return n
}

// stats snapshots the cache counters plus every design's lease occupancy.
// Entries and the pools count compiled designs only, not cached failures.
func (c *designCache) stats() (CacheMetrics, map[string]PoolMetrics) {
	c.mu.Lock()
	cm := CacheMetrics{
		Max:             c.max,
		Hits:            c.hits,
		Misses:          c.misses,
		Evictions:       c.evictions,
		InflightDeduped: c.dedups,
	}
	pm := make(map[string]PoolMetrics, len(c.entries))
	for h, e := range c.entries {
		if e.err != nil {
			continue
		}
		e.mu.Lock()
		pm[h] = PoolMetrics{Cap: cap(e.slots), Live: e.live, HighWater: e.highWater, Checkouts: e.checkouts}
		e.mu.Unlock()
	}
	cm.Entries = len(pm)
	c.mu.Unlock()
	return cm, pm
}
