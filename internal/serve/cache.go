package serve

import (
	"sync"
	"sync/atomic"
)

// The content-addressed result cache: whole NDJSON response bodies keyed
// on the FNV-64 content address of the canonical request
// (SweepRequest.Key). It is sound because the cached value is a pure
// function of the key's preimage — response bytes are a pure function of
// the canonical request — so replaying a cached body is observably
// identical to re-executing, and eviction only ever costs recomputation.
//
// The cache is a bounded LRU with single-flight deduplication:
// concurrent requests for the same key execute once, followers block and
// share the leader's bytes (the millions-of-identical-users shape pays
// one execution per distinct request). Recency comes from an injectable
// monotonic clock — a logical atomic counter in production, a scripted
// stub in the eviction-order tests — so eviction order is deterministic
// and never reads wall time.

// CacheStats is a point-in-time copy of the cache counters.
type CacheStats struct {
	Hits      int64 `json:"hits"`      // body served from a stored entry
	Misses    int64 `json:"misses"`    // body executed (single-flight leader)
	Coalesced int64 `json:"coalesced"` // body shared from a concurrent leader
	Evictions int64 `json:"evictions"` // entries dropped for capacity
	Entries   int   `json:"entries"`
	Capacity  int   `json:"capacity"`
}

// centry is one cached body with its last-touch stamp.
type centry struct {
	body []byte
	last uint64
}

// flight is one in-progress fill; followers block on done and read
// body/err after it closes.
type flight struct {
	done chan struct{}
	body []byte
	err  error
}

// Cache is the bounded single-flight LRU. The zero value is not usable;
// construct with NewCache.
type Cache struct {
	capacity int
	clock    func() uint64 // strictly increasing across Touch calls

	mu      sync.Mutex
	entries map[uint64]*centry
	flights map[uint64]*flight

	hits      atomic.Int64
	misses    atomic.Int64
	coalesced atomic.Int64
	evictions atomic.Int64
}

// NewCache returns a cache bounded to capacity entries (minimum 1), with
// recency driven by an internal logical counter.
func NewCache(capacity int) *Cache {
	var seq atomic.Uint64
	return newCacheWithClock(capacity, func() uint64 { return seq.Add(1) })
}

// newCacheWithClock is NewCache with the recency clock injected; tests
// use a scripted stub to pin eviction order.
func newCacheWithClock(capacity int, clock func() uint64) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{
		capacity: capacity,
		clock:    clock,
		entries:  make(map[uint64]*centry, capacity),
		flights:  make(map[uint64]*flight),
	}
}

// GetOrFill returns the body cached under key, or executes fill exactly
// once per concurrent wave to produce it. The first caller for an absent
// key is the leader: it runs fill outside the cache lock; every caller
// that arrives while the leader is in flight blocks and shares the
// leader's outcome without running fill. A successful body is stored
// (evicting the least-recently-used entry when over capacity); a fill
// error is returned to the whole wave and nothing is cached, so errors
// are never replayed.
func (c *Cache) GetOrFill(key uint64, fill func() ([]byte, error)) ([]byte, error) {
	c.mu.Lock()
	if e := c.entries[key]; e != nil {
		e.last = c.clock()
		c.mu.Unlock()
		c.hits.Add(1)
		return e.body, nil
	}
	if f := c.flights[key]; f != nil {
		c.mu.Unlock()
		c.coalesced.Add(1)
		<-f.done
		return f.body, f.err
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.mu.Unlock()
	c.misses.Add(1)

	f.body, f.err = fill()

	c.mu.Lock()
	delete(c.flights, key)
	if f.err == nil {
		c.insert(key, f.body)
	}
	c.mu.Unlock()
	close(f.done)
	return f.body, f.err
}

// insert stores a body under key, evicting the stalest entry first when
// at capacity. Callers hold c.mu.
func (c *Cache) insert(key uint64, body []byte) {
	if _, ok := c.entries[key]; !ok && len(c.entries) >= c.capacity {
		var victim uint64
		oldest := ^uint64(0)
		// Selecting the minimum stamp is order-independent: stamps are
		// unique (the clock is strictly increasing), so every iteration
		// order finds the same victim.
		//repolint:ordered min-stamp selection; unique stamps make the scan order irrelevant
		for k, e := range c.entries {
			if e.last <= oldest {
				oldest = e.last
				victim = k
			}
		}
		delete(c.entries, victim)
		c.evictions.Add(1)
	}
	c.entries[key] = &centry{body: body, last: c.clock()}
}

// Stats returns a copy of the counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	n := len(c.entries)
	c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Coalesced: c.coalesced.Load(),
		Evictions: c.evictions.Load(),
		Entries:   n,
		Capacity:  c.capacity,
	}
}
