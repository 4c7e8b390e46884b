package serve

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"

	"maya"
)

// degradeCache is the graceful-degradation layer: a bounded LRU of
// the last successfully computed report per prediction identity
// (predictKey). When the circuit breaker is open or the shedder is
// rejecting, a request whose identity has a cached result is answered
// with that stale report marked `"degraded": true` instead of an
// error — the contract being that a slightly stale prediction of a
// deterministic simulation beats a 503 for interactive what-if
// traffic. It is only consulted on the degraded path; healthy
// requests always recompute (the coalescer and capture cache below
// keep that cheap), so staleness is bounded by the length of the
// incident, not the cache's lifetime.
type degradeCache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*list.Element
	lru     *list.List // front = most recently used
	now     func() time.Time

	hits   atomic.Int64
	misses atomic.Int64
}

type staleEntry struct {
	key    string
	report *maya.Report
	at     time.Time // when the fresh result was computed
}

// newDegradeCache returns an empty cache bounded to max entries
// (minimum 1).
func newDegradeCache(max int) *degradeCache {
	if max < 1 {
		max = 1
	}
	return &degradeCache{
		max:     max,
		entries: make(map[string]*list.Element),
		lru:     list.New(),
		now:     time.Now,
	}
}

// put records a fresh successful report for key. Reports are
// immutable once returned by the predictor, so the cache shares the
// pointer.
func (c *degradeCache) put(key string, r *maya.Report) {
	if r == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value = &staleEntry{key: key, report: r, at: c.now()}
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(&staleEntry{key: key, report: r, at: c.now()})
	for c.lru.Len() > c.max {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.entries, back.Value.(*staleEntry).key)
	}
}

// get returns the stale report for key and its age, if one is cached.
func (c *degradeCache) get(key string) (*maya.Report, time.Duration, bool) {
	c.mu.Lock()
	el, ok := c.entries[key]
	if !ok {
		c.mu.Unlock()
		c.misses.Add(1)
		return nil, 0, false
	}
	c.lru.MoveToFront(el)
	e := el.Value.(*staleEntry)
	age := c.now().Sub(e.at)
	c.mu.Unlock()
	c.hits.Add(1)
	return e.report, age, true
}

// len reports how many identities have a cached result.
func (c *degradeCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
