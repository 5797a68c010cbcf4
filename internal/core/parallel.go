package core

import (
	"context"
	"sync"
	"sync/atomic"
)

// ParallelFor runs fn(i) for every i in [0, n) using at most c worker
// goroutines and returns when every call has returned. With c <= 1 it
// degenerates to the plain sequential loop, so the two paths share one
// implementation and one set of semantics. It is the tree's one bounded
// fan-out: the study's stages and live GETs, StreamOrdered's workers
// and each monitor due-day all run on it.
//
// Workers claim indices from a shared atomic counter (work stealing by
// another name): links vary wildly in archive-side cost — a link on a
// 4,000-URL domain scans far more CDX rows than one on a single-page
// host — so static range splitting would leave workers idle behind the
// heavy shards.
//
// Determinism contract: fn must write only to per-index state (e.g.
// slot i of a pre-sized slice). Callers then merge those slots in
// index order, which makes the result byte-identical to the
// sequential path no matter how the indices interleave.
func ParallelFor(n, c int, fn func(i int)) {
	if c > n {
		c = n
	}
	if c <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(c)
	for w := 0; w < c; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// StreamOrdered runs work(i) for every i in [0, n) on up to c worker
// goroutines and delivers the results to emit in strict index order,
// each as soon as it and all its predecessors are ready — the shape a
// streaming batch response needs: item 0 can be flushed to the client
// while item 500 is still computing, yet output order always matches
// input order. emit runs on the calling goroutine only.
//
// The workers are ParallelFor's: they claim indices from a shared
// counter, since per-item cost varies wildly and static splitting would
// idle workers behind heavy items. Completed out-of-order results
// wait in a reorder buffer until their turn. Nothing ties the claim
// counter to the emit frontier, so one slow item at the frontier lets
// the workers run on and the buffer grow towards n results, not c
// (ROADMAP item 4 adds the claim window that bounds it).
//
// Cancellation: when ctx is done or emit returns an error, no new
// work is started, in-flight work is allowed to finish, and the first
// error is returned. work itself is responsible for honoring ctx in
// long computations.
func StreamOrdered[T any](ctx context.Context, n, c int, work func(i int) T, emit func(i int, v T) error) error {
	return StreamOrderedIdle(ctx, n, c, work, emit, func() {})
}

// StreamOrderedIdle is StreamOrdered for an emit that buffers: idle
// runs on the calling goroutine whenever results have been emitted
// since its last run and the emitter is about to wait for a later one,
// and before returning. With idle as the flush, results that are ready
// together share one write, and a ready result is never held while a
// later one computes.
func StreamOrderedIdle[T any](ctx context.Context, n, c int, work func(i int) T, emit func(i int, v T) error, idle func()) error {
	if n <= 0 {
		return ctx.Err()
	}
	if c > n {
		c = n
	}
	if c <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := emit(i, work(i)); err != nil {
				return err
			}
			idle() // the next work(i) is the wait
		}
		return nil
	}

	type slot struct {
		i int
		v T
	}
	var (
		stopped atomic.Bool
		results = make(chan slot, c)
	)
	go func() {
		ParallelFor(n, c, func(i int) {
			if !stopped.Load() {
				results <- slot{i: i, v: work(i)}
			}
		})
		close(results)
	}()

	// The reorder buffer: emit index `want` the moment it arrives,
	// park later indices until their turn. While index `want` is
	// computing, the other workers keep claiming and finishing later
	// indices, so len(pending) is bounded only by n (ROADMAP item 4).
	pending := make(map[int]T, 2*c)
	want := 0
	unflushed := false // emitted since idle last ran
	var firstErr error
	stop := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
		stopped.Store(true)
	}
	for s := range results {
		if firstErr != nil {
			continue // drain so workers sending on results can exit
		}
		if err := ctx.Err(); err != nil {
			stop(err)
			continue
		}
		pending[s.i] = s.v
		for {
			v, ok := pending[want]
			if !ok {
				break
			}
			delete(pending, want)
			if err := emit(want, v); err != nil {
				stop(err)
				break
			}
			want++
			unflushed = true
		}
		// Nothing queued: the next receive waits on a worker.
		if unflushed && len(results) == 0 {
			idle()
			unflushed = false
		}
	}
	if unflushed {
		idle()
	}
	return firstErr
}
