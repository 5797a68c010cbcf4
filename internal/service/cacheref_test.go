package service

// The response cache's predecessor, kept as the reference that
// FuzzCacheDifferential holds Cache to: two sharded LRUs (a positive
// and a negative capacity class) probed in turn, plus a flight group
// coalescing identical computations. refPair.do is how classifyBody
// composed the three.

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"

	"permadead/internal/hashx"
)

// refPair is the reference composition: lookup probes the positive
// class, then the negative one; a miss joins or leads a flight, whose
// leader stores the body in the class compute reports.
type refPair struct {
	pos, neg *refCache
	flight   *refFlightGroup
}

func newRefPair(positive, negative, shards int) *refPair {
	return &refPair{
		pos:    newRefCache(positive, shards),
		neg:    newRefCache(negative, shards),
		flight: &refFlightGroup{calls: make(map[string]*refFlightCall)},
	}
}

func (p *refPair) lookup(key string) ([]byte, bool) {
	if body, ok := p.pos.Get(key); ok {
		return body, true
	}
	return p.neg.Get(key)
}

func (p *refPair) do(ctx context.Context, key string, compute func() ([]byte, cacheClass, error)) ([]byte, string, error) {
	if body, ok := p.lookup(key); ok {
		return body, "hit", nil
	}
	body, shared, err := p.flight.do(ctx, key, func() ([]byte, error) {
		b, class, err := compute()
		if err != nil {
			return nil, err
		}
		switch class {
		case cachePositive:
			p.pos.Put(key, b)
		case cacheNegative:
			p.neg.Put(key, b)
		}
		return b, nil
	})
	if err != nil {
		return nil, "", err
	}
	if shared {
		return body, "coalesced", nil
	}
	return body, "miss", nil
}

// negResident reports whether the negative class holds key.
func (p *refPair) negResident(key string) bool {
	s := p.neg.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.items[key]
	return ok
}

// refCache is the former response cache: a sharded LRU over rendered JSON
// bodies, keyed by endpoint + canonical URL + policy knobs. Sharding
// keeps lock contention off the hot path — each shard has its own
// mutex, recency list, and capacity slice, and a request only ever
// touches one shard. Entries are immutable []byte values; callers
// must not modify what Get returns.
type refCache struct {
	shards []*refCacheShard
	// disabled marks a capacity <= 0 cache: Get answers "no" without
	// touching the counters (a cache that cannot hold anything has no
	// hit rate to measure — every probe counting as a miss would drag
	// aggregate stats toward zero for no reason), Put is a no-op.
	disabled bool

	hits, misses, evictions atomic.Int64
}

type refCacheShard struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

type refCacheEntry struct {
	key string
	val []byte
}

// newRefCache builds a cache holding at most `capacity` entries split
// across `shards` shards. The remainder of capacity/shards is spread
// one entry each over the first shards, so per-shard capacities sum
// to exactly `capacity` — never more (rounding every shard up would
// turn newRefCache(4, 64) into a 64-entry cache). Shards past the
// capacity hold nothing; keys hashing there simply don't cache.
// capacity <= 0 disables caching: Get always misses (uncounted),
// Put is a no-op.
func newRefCache(capacity, shards int) *refCache {
	if shards < 1 {
		shards = 1
	}
	if capacity < 0 {
		capacity = 0
	}
	c := &refCache{shards: make([]*refCacheShard, shards), disabled: capacity == 0}
	per, extra := capacity/shards, capacity%shards
	for i := range c.shards {
		n := per
		if i < extra {
			n++
		}
		c.shards[i] = &refCacheShard{
			cap:   n,
			ll:    list.New(),
			items: make(map[string]*list.Element),
		}
	}
	return c
}

func (c *refCache) shard(key string) *refCacheShard {
	return c.shards[hashx.FNV1a(key)%uint64(len(c.shards))]
}

// Get returns the cached value for key, promoting it to most recently
// used.
func (c *refCache) Get(key string) ([]byte, bool) {
	if c.disabled {
		return nil, false
	}
	s := c.shard(key)
	s.mu.Lock()
	el, ok := s.items[key]
	var val []byte
	if ok {
		s.ll.MoveToFront(el)
		// Read val under the lock: Put's overwrite branch mutates the
		// entry's val field, and an unlocked read here races with it.
		val = el.Value.(*refCacheEntry).val
	}
	s.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return val, true
}

// Put stores val under key, evicting the shard's least recently used
// entry when full.
func (c *refCache) Put(key string, val []byte) {
	s := c.shard(key)
	if s.cap <= 0 {
		return
	}
	s.mu.Lock()
	if el, ok := s.items[key]; ok {
		el.Value.(*refCacheEntry).val = val
		s.ll.MoveToFront(el)
		s.mu.Unlock()
		return
	}
	if s.ll.Len() >= s.cap {
		lru := s.ll.Back()
		s.ll.Remove(lru)
		delete(s.items, lru.Value.(*refCacheEntry).key)
		c.evictions.Add(1)
	}
	s.items[key] = s.ll.PushFront(&refCacheEntry{key: key, val: val})
	s.mu.Unlock()
}

// Stats returns the cumulative counters and current resident size.
func (c *refCache) Stats() CacheStats {
	st := CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
	}
	for _, s := range c.shards {
		s.mu.Lock()
		st.Entries += s.ll.Len()
		st.Capacity += s.cap
		s.mu.Unlock()
	}
	if total := st.Hits + st.Misses; total > 0 {
		st.HitRate = float64(st.Hits) / float64(total)
	}
	return st
}

// refFlightGroup coalesces concurrent identical computations: the first
// request for a key (the leader) runs the compute function; requests
// arriving for the same key while it runs (followers) wait and share
// the leader's rendered body instead of redoing the work. Under a
// thundering herd — a popular link hitting the batch and single-link
// endpoints at once — N concurrent identical requests cost one
// classification, not N.
//
// Contexts: the leader runs fn to completion regardless of its own
// request's fate (fn is expected to bound itself, e.g. with the
// server's request timeout) so that followers who are still waiting
// aren't killed by the leader's client hanging up. Each follower
// waits under its *own* ctx and leaves alone if it expires; the
// computation keeps running for everyone else.
type refFlightGroup struct {
	mu    sync.Mutex
	calls map[string]*refFlightCall

	// leaders counts computations performed; coalesced counts
	// requests served by another request's computation; abandoned
	// counts followers whose own deadline expired while waiting.
	leaders, coalesced, abandoned atomic.Int64
}

type refFlightCall struct {
	done chan struct{} // closed when the leader finishes
	body []byte
	err  error
}

// do runs fn once per key across concurrent callers. It reports the
// shared body, whether this caller coalesced onto another's
// computation, and the computation's error (or ctx's, for a follower
// that gave up waiting).
func (g *refFlightGroup) do(ctx context.Context, key string, fn func() ([]byte, error)) (body []byte, shared bool, err error) {
	g.mu.Lock()
	if c, ok := g.calls[key]; ok {
		g.mu.Unlock()
		select {
		case <-c.done:
			g.coalesced.Add(1)
			return c.body, true, c.err
		case <-ctx.Done():
			g.abandoned.Add(1)
			return nil, true, ctx.Err()
		}
	}
	c := &refFlightCall{done: make(chan struct{})}
	g.calls[key] = c
	g.mu.Unlock()

	g.leaders.Add(1)
	c.body, c.err = fn()

	// Unregister before broadcasting: a request arriving after the
	// result is settled should hit the response cache (or lead a
	// fresh computation), not latch onto a finished call forever.
	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
	close(c.done)
	return c.body, false, c.err
}

// waiting reports whether key has a computation in flight.
func (g *refFlightGroup) waiting(key string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	_, ok := g.calls[key]
	return ok
}

func (g *refFlightGroup) stats() FlightStats {
	return FlightStats{
		Leaders:   g.leaders.Load(),
		Coalesced: g.coalesced.Load(),
		Abandoned: g.abandoned.Load(),
	}
}
