package service

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestCacheCapacityNeverExceedsRequested pins the NewCache semantics
// fix: per-shard capacities must sum to exactly the requested total
// (NewCache(4, 64) used to round every shard up to 1 and hold 64
// entries), and overfilling must evict down to that total.
func TestCacheCapacityNeverExceedsRequested(t *testing.T) {
	for _, tc := range []struct{ capacity, shards int }{
		{4, 64}, {10, 4}, {64, 16}, {1, 8}, {7, 7}, {100, 3},
	} {
		c := NewCache(tc.capacity, tc.shards)
		if got := c.Stats().Capacity; got != tc.capacity {
			t.Errorf("NewCache(%d, %d): total capacity %d, want %d",
				tc.capacity, tc.shards, got, tc.capacity)
		}
		for i := 0; i < 10*tc.capacity; i++ {
			c.Put(fmt.Sprintf("key-%d", i), []byte("v"))
		}
		if got := c.Stats().Entries; got > tc.capacity {
			t.Errorf("NewCache(%d, %d): %d resident entries after overfill, want <= %d",
				tc.capacity, tc.shards, got, tc.capacity)
		}
	}
}

// TestCacheRemainderDistribution checks the remainder spreads one
// entry per shard instead of vanishing: 10 entries over 4 shards is
// 3+3+2+2, so all 10 slots are usable somewhere.
func TestCacheRemainderDistribution(t *testing.T) {
	c := NewCache(10, 4)
	caps := make([]int, 4)
	for i, s := range c.shards {
		caps[i] = s.lru[cachePositive].cap
	}
	if caps[0] != 3 || caps[1] != 3 || caps[2] != 2 || caps[3] != 2 {
		t.Errorf("shard capacities = %v, want [3 3 2 2]", caps)
	}
}

// TestDisabledCacheCountsNothing: a capacity <= 0 cache must not
// pollute hit-rate stats with misses it could never have avoided.
func TestDisabledCacheCountsNothing(t *testing.T) {
	c := NewCache(0, 8)
	c.Put("k", []byte("v"))
	if _, ok := c.Get("k"); ok {
		t.Error("disabled cache returned a value")
	}
	st := c.Stats()
	if st.Hits != 0 || st.Misses != 0 || st.Entries != 0 || st.Capacity != 0 {
		t.Errorf("disabled cache stats = %+v, want all zero", st)
	}

	// An enabled cache still counts both sides.
	c = NewCache(4, 2)
	if _, ok := c.Get("k"); ok {
		t.Error("empty cache hit")
	}
	c.Put("k", []byte("v"))
	if _, ok := c.Get("k"); !ok {
		t.Error("enabled cache missed a stored key")
	}
	st = c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("enabled cache stats = %+v, want 1 hit 1 miss", st)
	}
}

// TestCacheLRUWithinShard: eviction removes the least recently used
// entry of the full shard, and Get refreshes recency.
func TestCacheLRUWithinShard(t *testing.T) {
	c := NewCache(2, 1)
	c.Put("a", []byte("1"))
	c.Put("b", []byte("2"))
	c.Get("a") // refresh: b is now LRU
	c.Put("c", []byte("3"))
	if _, ok := c.Get("b"); ok {
		t.Error("LRU entry b survived eviction")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("recently used entry a was evicted")
	}
	if got := c.Stats().Evictions; got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
}

// TestCachePutReplacesSettledValue pins Put where the one-entry-per-key
// cache parts from the two caches it replaced: a settled key of either
// class gets the new value in place and keeps its class, and a key in
// flight is left alone — its computation settles it, and a waiter
// still gets the computed body.
func TestCachePutReplacesSettledValue(t *testing.T) {
	c := newCache(2, 2, 1)
	ctx := context.Background()
	c.do(ctx, "neg", func() ([]byte, cacheClass, error) { return []byte("computed"), cacheNegative, nil })
	c.Put("neg", []byte("put"))
	if body, ok := c.Get("neg"); !ok || string(body) != "put" {
		t.Errorf("Get after Put on a negative key = %q, %v; want \"put\", true", body, ok)
	}
	if pos, neg := c.Stats().Entries, c.classStats(cacheNegative).Entries; pos != 0 || neg != 1 {
		t.Errorf("entries after Put on a negative key: positive %d, negative %d; want 0, 1", pos, neg)
	}

	entered, release := make(chan struct{}), make(chan struct{})
	done := make(chan string)
	go func() {
		body, _, _ := c.do(ctx, "k", func() ([]byte, cacheClass, error) {
			close(entered)
			<-release
			return []byte("computed"), cachePositive, nil
		})
		done <- string(body)
	}()
	<-entered
	c.Put("k", []byte("put"))
	if _, ok := c.Get("k"); ok {
		t.Error("Put on a key in flight settled it")
	}
	close(release)
	if got := <-done; got != "computed" {
		t.Errorf("leader body = %q, want computed", got)
	}
	if body, ok := c.Get("k"); !ok || string(body) != "computed" {
		t.Errorf("Get after the flight = %q, %v; want \"computed\", true", body, ok)
	}
}

// TestCacheHitAllocs: a settled hit costs no allocation, through do
// and through classifyBody — the cached batch line's zero-allocation
// path.
func TestCacheHitAllocs(t *testing.T) {
	ctx := context.Background()
	c := newCache(4, 4, 2)
	compute := func() ([]byte, cacheClass, error) { return []byte("v"), cachePositive, nil }
	c.do(ctx, "k", compute)
	if n := testing.AllocsPerRun(100, func() { c.do(ctx, "k", compute) }); n != 0 {
		t.Errorf("do hit: %v allocs, want 0", n)
	}

	_, r := fixture(t)
	s := newServer(t, func(c *Config) { c.DisableMonitor = true })
	u := r.Records[0].URL
	if _, src, err := s.classifyBody(ctx, u); err != nil || src != "miss" {
		t.Fatalf("first classify: src %q, err %v; want miss", src, err)
	}
	if _, src, err := s.classifyBody(ctx, u); err != nil || src != "hit" {
		t.Fatalf("repeat classify: src %q, err %v; want hit", src, err)
	}
	if n := testing.AllocsPerRun(100, func() { s.classifyBody(ctx, u) }); n != 0 {
		t.Errorf("classifyBody hit: %v allocs, want 0", n)
	}
}

// TestCachePanickingComputeSettles: a computation that panics settles
// its entry on the way out. A waiter parked on it gets an error at
// once, not its own deadline, and the next request for the key leads a
// fresh computation instead of waiting on the dead one.
func TestCachePanickingComputeSettles(t *testing.T) {
	c := newCache(4, 4, 1)
	entered, release := make(chan struct{}), make(chan struct{})
	recovered := make(chan any)
	go func() {
		defer func() { recovered <- recover() }()
		c.do(context.Background(), "k", func() ([]byte, cacheClass, error) {
			close(entered)
			<-release
			panic("damaged section")
		})
	}()
	<-entered

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	waited := make(chan error)
	go func() {
		_, _, err := c.do(ctx, "k", func() ([]byte, cacheClass, error) {
			t.Error("a waiter parked on the leader computed")
			return nil, cacheSkip, nil
		})
		waited <- err
	}()
	for c.class[cachePositive].misses.Load() < 2 { // the waiter has probed
		time.Sleep(time.Millisecond)
	}
	close(release)
	if r := <-recovered; r != "damaged section" {
		t.Errorf("leader recovered %v, want the compute's panic", r)
	}
	select {
	case err := <-waited:
		if err == nil || errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("waiter err = %v, want the leader's failure", err)
		}
	case <-time.After(time.Second):
		t.Fatal("waiter still parked 1 s after the leader panicked")
	}

	start := time.Now()
	body, src, err := c.do(ctx, "k", func() ([]byte, cacheClass, error) { return []byte("v"), cachePositive, nil })
	if err != nil || src != "miss" || string(body) != "v" {
		t.Errorf("do after the panic = %q, %q, %v; want v, miss, nil", body, src, err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("do after the panic took %v", d)
	}
}
