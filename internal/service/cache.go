package service

import (
	"container/list"
	"sync"
	"sync/atomic"

	"permadead/internal/hashx"
)

// Cache is the response cache: a sharded LRU over rendered JSON
// bodies, keyed by endpoint + canonical URL + policy knobs. Sharding
// keeps lock contention off the hot path — each shard has its own
// mutex, recency list, and capacity slice, and a request only ever
// touches one shard. Entries are immutable []byte values; callers
// must not modify what Get returns.
type Cache struct {
	shards []*cacheShard
	// disabled marks a capacity <= 0 cache: Get answers "no" without
	// touching the counters (a cache that cannot hold anything has no
	// hit rate to measure — every probe counting as a miss would drag
	// aggregate stats toward zero for no reason), Put is a no-op.
	disabled bool

	hits, misses, evictions atomic.Int64
}

type cacheShard struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

type cacheEntry struct {
	key string
	val []byte
}

// NewCache builds a cache holding at most `capacity` entries split
// across `shards` shards. The remainder of capacity/shards is spread
// one entry each over the first shards, so per-shard capacities sum
// to exactly `capacity` — never more (rounding every shard up would
// turn NewCache(4, 64) into a 64-entry cache). Shards past the
// capacity hold nothing; keys hashing there simply don't cache.
// capacity <= 0 disables caching: Get always misses (uncounted),
// Put is a no-op.
func NewCache(capacity, shards int) *Cache {
	if shards < 1 {
		shards = 1
	}
	if capacity < 0 {
		capacity = 0
	}
	c := &Cache{shards: make([]*cacheShard, shards), disabled: capacity == 0}
	per, extra := capacity/shards, capacity%shards
	for i := range c.shards {
		n := per
		if i < extra {
			n++
		}
		c.shards[i] = &cacheShard{
			cap:   n,
			ll:    list.New(),
			items: make(map[string]*list.Element),
		}
	}
	return c
}

func (c *Cache) shard(key string) *cacheShard {
	return c.shards[hashx.FNV1a(key)%uint64(len(c.shards))]
}

// Get returns the cached value for key, promoting it to most recently
// used.
func (c *Cache) Get(key string) ([]byte, bool) {
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
		val = el.Value.(*cacheEntry).val
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
func (c *Cache) Put(key string, val []byte) {
	s := c.shard(key)
	if s.cap <= 0 {
		return
	}
	s.mu.Lock()
	if el, ok := s.items[key]; ok {
		el.Value.(*cacheEntry).val = val
		s.ll.MoveToFront(el)
		s.mu.Unlock()
		return
	}
	if s.ll.Len() >= s.cap {
		lru := s.ll.Back()
		s.ll.Remove(lru)
		delete(s.items, lru.Value.(*cacheEntry).key)
		c.evictions.Add(1)
	}
	s.items[key] = s.ll.PushFront(&cacheEntry{key: key, val: val})
	s.mu.Unlock()
}

// CacheStats is a point-in-time view of the cache counters.
type CacheStats struct {
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Evictions int64   `json:"evictions"`
	Entries   int     `json:"entries"`
	Capacity  int     `json:"capacity"`
	HitRate   float64 `json:"hit_rate"`
}

// Stats returns the cumulative counters and current resident size.
func (c *Cache) Stats() CacheStats {
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
