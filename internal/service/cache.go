package service

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"permadead/internal/hashx"
)

// cacheClass says where (whether) a computed response body may be
// memoized.
type cacheClass int

const (
	// cachePositive: a durable answer with archive substance.
	cachePositive cacheClass = iota
	// cacheNegative: a durable "nothing there" answer (no snapshot,
	// never archived). Its own recency list and capacity keep the
	// unbounded population of negative lookups from evicting positive
	// results (§5.1: most of the paper's dead links were never archived
	// at all — the negative case is the common one).
	cacheNegative
	// cacheSkip: the answer reflects a transient condition (a 5xx, a
	// 429, a timeout) rather than frozen-index state. Serving it once
	// is honest; memoizing it would let one bad moment poison every
	// later request until eviction.
	cacheSkip
)

// Cache is the response cache: a sharded LRU over rendered JSON
// bodies, keyed by endpoint + canonical URL + policy knobs, that also
// coalesces concurrent computations of a key. A request touches one
// shard — one mutex, one map — once.
//
// A settled entry sits on its class's recency list; each class has its
// own capacity, split across the shards. While a key is computed its
// entry is in flight: on no list, so never evicted, with a done channel
// that concurrent requests for the key wait on — N identical requests
// cost one computation. Bodies are immutable; callers must not modify
// what Get or do return.
type Cache struct {
	shards []*cacheShard
	class  [2]classCounters // cachePositive, cacheNegative

	// leaders counts computations run, coalesced requests answered by
	// another's computation, abandoned waiters whose context ended first.
	leaders, coalesced, abandoned atomic.Int64
}

// classCounters are one class's cumulative counters. A class with no
// capacity counts nothing: it has no hit rate to measure.
type classCounters struct {
	disabled                bool
	hits, misses, evictions atomic.Int64
}

type cacheShard struct {
	mu    sync.Mutex
	items map[string]*cacheEntry
	lru   [2]struct {
		cap int
		ll  list.List // of *cacheEntry, most recently used first
	}
}

// cacheEntry is one key's body, or its computation while done is
// non-nil. A settled entry is never modified: Put replaces it, so a
// waiter may read val and err once done is closed.
type cacheEntry struct {
	key   string
	val   []byte
	err   error
	class cacheClass
	el    *list.Element // on lru[class] once settled
	done  chan struct{}
}

// NewCache builds a positive-only cache holding at most `capacity`
// entries split across `shards` shards. The remainder of
// capacity/shards is spread one entry each over the first shards, so
// per-shard capacities sum to exactly `capacity`; shards past it hold
// nothing. capacity <= 0 disables caching: Get always misses
// (uncounted), Put is a no-op.
func NewCache(capacity, shards int) *Cache { return newCache(capacity, 0, shards) }

// newCache builds a cache with a capacity per class, each split over
// the shards as NewCache describes.
func newCache(positive, negative, shards int) *Cache {
	shards = max(shards, 1)
	c := &Cache{shards: make([]*cacheShard, shards)}
	for i := range c.shards {
		c.shards[i] = &cacheShard{items: make(map[string]*cacheEntry)}
	}
	for class, capacity := range [2]int{positive, negative} {
		capacity = max(capacity, 0)
		c.class[class].disabled = capacity == 0
		for i, s := range c.shards {
			s.lru[class].cap = capacity / shards
			if i < capacity%shards {
				s.lru[class].cap++
			}
		}
	}
	return c
}

func (c *Cache) shard(key string) *cacheShard {
	return c.shards[hashx.FNV1a(key)%uint64(len(c.shards))]
}

// probe looks key up with s.mu held, promotes a settled entry to most
// recently used, and counts the probe: a positive hit; a positive miss
// and a negative hit; or a miss in both (in flight counts as a miss).
func (c *Cache) probe(s *cacheShard, key string) *cacheEntry {
	e := s.items[key]
	hit := cacheSkip
	if e != nil && e.done == nil {
		s.lru[e.class].ll.MoveToFront(e.el)
		hit = e.class
	}
	for class := cachePositive; class <= cacheNegative; class++ {
		switch k := &c.class[class]; {
		case class == hit:
			k.hits.Add(1)
			return e
		case !k.disabled:
			k.misses.Add(1)
		}
	}
	return e
}

// Get returns key's settled body, promoting it to most recently used.
// A key in flight misses: Get never waits.
func (c *Cache) Get(key string) ([]byte, bool) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := c.probe(s, key); e != nil && e.done == nil {
		return e.val, true
	}
	return nil, false
}

// Put stores val under key in the positive class, or replaces a settled
// key's value in its own class. A key in flight is left alone: its
// computation settles it.
func (c *Cache) Put(key string, val []byte) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	switch e := s.items[key]; {
	case e == nil && s.lru[cachePositive].cap > 0:
		c.insert(s, &cacheEntry{key: key, val: val})
	case e != nil && e.done == nil:
		s.lru[e.class].ll.Remove(e.el)
		c.insert(s, &cacheEntry{key: key, val: val, class: e.class})
	}
}

// insert files e as its class's most recently used entry, evicting the
// least recently used one when the shard's list is full. s.mu is held.
func (c *Cache) insert(s *cacheShard, e *cacheEntry) {
	l := &s.lru[e.class]
	if l.ll.Len() >= l.cap {
		delete(s.items, l.ll.Remove(l.ll.Back()).(*cacheEntry).key)
		c.class[e.class].evictions.Add(1)
	}
	e.el = l.ll.PushFront(e)
	s.items[e.key] = e
}

// do answers key from the cache or computes it once across concurrent
// callers, and says which: "hit"; "coalesced" — another caller's
// computation, waited for under ctx (a caller whose ctx ends first
// leaves with ctx's error); or "miss" — this caller led. The leader
// runs compute to completion whatever becomes of its own request, so
// compute must bound itself, and files the body under the class
// compute reports. An error, cacheSkip or a class with no room in the
// shard drops the entry, so the next request computes afresh. A compute
// that panics settles the entry too — its waiters get
// errComputePanicked and the key is dropped — before the panic goes on.
func (c *Cache) do(ctx context.Context, key string, compute func() ([]byte, cacheClass, error)) ([]byte, string, error) {
	s := c.shard(key)
	s.mu.Lock()
	e := c.probe(s, key)
	switch {
	case e == nil:
		e = &cacheEntry{key: key, done: make(chan struct{})}
		s.items[key] = e
	case e.done == nil:
		s.mu.Unlock()
		return e.val, "hit", nil
	default:
		done := e.done // the leader clears e.done as it settles
		s.mu.Unlock()
		select {
		case <-done:
			c.coalesced.Add(1)
			return e.val, "coalesced", e.err
		case <-ctx.Done():
			c.abandoned.Add(1)
			return nil, "", ctx.Err()
		}
	}
	s.mu.Unlock()
	return c.lead(s, e, compute)
}

// errComputePanicked is what waiters on a computation that panicked get.
var errComputePanicked = errors.New("service: response computation panicked")

// lead runs compute as e's leader and settles e on every exit, a panic
// included: kept out of do, so a hit never sets up the deferred settle.
func (c *Cache) lead(s *cacheShard, e *cacheEntry, compute func() ([]byte, cacheClass, error)) (val []byte, _ string, err error) {
	c.leaders.Add(1)
	class, err := cacheSkip, errComputePanicked // unless compute returns
	defer func() {
		s.mu.Lock()
		done := e.done
		e.val, e.err, e.class, e.done = val, err, class, nil
		if err != nil || class == cacheSkip || s.lru[class].cap == 0 {
			delete(s.items, e.key)
		} else {
			c.insert(s, e)
		}
		s.mu.Unlock()
		close(done)
	}()
	val, class, err = compute()
	return val, "miss", err
}

// CacheStats is a point-in-time view of one class's counters.
type CacheStats struct {
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Evictions int64   `json:"evictions"`
	Entries   int     `json:"entries"`
	Capacity  int     `json:"capacity"`
	HitRate   float64 `json:"hit_rate"`
}

// Stats returns the positive class's cumulative counters and current
// resident size.
func (c *Cache) Stats() CacheStats { return c.classStats(cachePositive) }

func (c *Cache) classStats(class cacheClass) CacheStats {
	k := &c.class[class]
	st := CacheStats{Hits: k.hits.Load(), Misses: k.misses.Load(), Evictions: k.evictions.Load()}
	for _, s := range c.shards {
		s.mu.Lock()
		st.Entries += s.lru[class].ll.Len()
		st.Capacity += s.lru[class].cap
		s.mu.Unlock()
	}
	if total := st.Hits + st.Misses; total > 0 {
		st.HitRate = float64(st.Hits) / float64(total)
	}
	return st
}

// FlightStats is a point-in-time view of the coalescing counters.
type FlightStats struct {
	Leaders   int64 `json:"leaders"`
	Coalesced int64 `json:"coalesced"`
	Abandoned int64 `json:"abandoned"`
}

func (c *Cache) flightStats() FlightStats {
	return FlightStats{Leaders: c.leaders.Load(), Coalesced: c.coalesced.Load(), Abandoned: c.abandoned.Load()}
}
