package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// FuzzCacheDifferential drives Cache and its predecessor (refPair: two
// LRUs and a flight group, cacheref_test.go) through the same sequence
// of Get, Put and do, with computations held open so that later calls
// join them, and each computation settling positive, negative, skip or
// error. Capacities run 0–3 per class over 1–3 shards. After every
// step the two must have given the same bodies and X-Cache sources and
// hold the same per-class Entries, Capacity, Hits, Misses and
// Evictions and the same flight counters.
//
// Put is where the two differ by contract, since Cache keeps one entry
// per key: Put on a key in flight must do nothing to Cache (the
// predecessor's pair never saw that call, so any effect shows up as a
// difference later), and Put on a key the negative class holds is not
// driven at all (TestCachePutReplacesSettledValue pins Cache there).
//
// Each input byte pair is one step: op%5 picks Get, Put, do, settle
// (the op/5%4'th result kind) or abandon (cancel a waiter's context);
// the second byte picks the key, or which computation or waiter.
func FuzzCacheDifferential(f *testing.F) {
	f.Add([]byte{2, 1, 0, 2, 0, 2, 0, 1, 0, 0, 0, 3, 0, 2, 0, 2, 1, 8, 0, 2, 1, 2, 2, 2, 2, 4, 0, 13, 0, 2, 2, 2, 3, 18, 0, 2, 3})
	f.Add([]byte{0, 0, 1, 2, 0, 2, 0, 3, 0, 2, 0, 1, 0, 0, 0})
	f.Add([]byte{1, 1, 0, 2, 0, 3, 0, 2, 1, 3, 0, 2, 2, 8, 0, 2, 3, 8, 0, 0, 0, 0, 1, 1, 4, 1, 5, 2, 4, 2, 5})
	f.Add([]byte{3, 3, 2, 2, 0, 2, 1, 2, 0, 2, 1, 3, 1, 8, 0, 1, 0, 1, 1, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) < 3 {
			return
		}
		positive, negative, shards := int(ops[0]%4), int(ops[1]%4), 1+int(ops[2]%3)
		c, ref := newCache(positive, negative, shards), newRefPair(positive, negative, shards)
		sides := [2]*fuzzSide{{do: c.do}, {do: ref.do}}

		same := func(step int, what string, got, want outcome) {
			t.Helper()
			if got.String() != want.String() {
				t.Fatalf("step %d %s: Cache %q, reference %q", step, what, got, want)
			}
		}
		settle := func(step, i int, r fuzzResult) {
			got, want := sides[0].settle(t, i, r), sides[1].settle(t, i, r)
			for k := range got {
				same(step, "settle", got[k], want[k])
			}
		}
		for n := 3; n+1 < len(ops); n += 2 {
			op, arg := ops[n], int(ops[n+1])
			key := fmt.Sprintf("k%d", arg%8)
			switch op % 5 {
			case 0:
				got, gok := c.Get(key)
				want, wok := ref.lookup(key)
				same(n, "Get "+key, outcome{body: got, src: fmt.Sprint(gok)}, outcome{body: want, src: fmt.Sprint(wok)})
			case 1:
				if ref.negResident(key) {
					continue
				}
				val := []byte(fmt.Sprintf("put@%d", n))
				c.Put(key, val)
				if !ref.flight.waiting(key) {
					ref.pos.Put(key, val)
				}
			case 2:
				gs, got := sides[0].start(t, key)
				ws, want := sides[1].start(t, key)
				if gs != ws {
					t.Fatalf("step %d do %s: Cache %s, reference %s", n, key, gs, ws)
				}
				same(n, "do "+key, got, want)
			case 3:
				if len(sides[0].leaders) == 0 {
					continue
				}
				i := arg % len(sides[0].leaders)
				r := fuzzResult{body: []byte(fmt.Sprintf("%s@%d", sides[0].leaders[i].key, n))}
				switch op / 5 % 4 {
				case 1:
					r.class = cacheNegative
				case 2:
					r.class = cacheSkip
				case 3:
					r.body, r.err = nil, errors.New("compute failed")
				}
				settle(n, i, r)
			case 4:
				if len(sides[0].followers) == 0 {
					continue
				}
				i := arg % len(sides[0].followers)
				same(n, "abandon", sides[0].abandon(t, i), sides[1].abandon(t, i))
			}
			for _, class := range []cacheClass{cachePositive, cacheNegative} {
				want := ref.pos.Stats()
				if class == cacheNegative {
					want = ref.neg.Stats()
				}
				if got := c.classStats(class); got != want {
					t.Fatalf("step %d class %d stats: Cache %+v, reference %+v", n, class, got, want)
				}
			}
			if got, want := c.flightStats(), ref.flight.stats(); got != want {
				t.Fatalf("step %d flight stats: Cache %+v, reference %+v", n, got, want)
			}
		}
		for len(sides[0].leaders) > 0 {
			settle(len(ops), 0, fuzzResult{class: cacheSkip})
		}
	})
}

// fuzzWait bounds every wait in the fuzz harness: a call that neither
// answers, leads nor waits within it is a deadlock.
const fuzzWait = 5 * time.Second

// outcome is what one do or Get call gave back. Errors compare by
// message alone: on an error both callers ignore the body and source.
type outcome struct {
	body []byte
	src  string
	err  error
}

func (o outcome) String() string {
	if o.err != nil {
		return "error: " + o.err.Error()
	}
	return o.src + " " + string(o.body)
}

// fuzzResult is what a held computation returns once settled.
type fuzzResult struct {
	body  []byte
	class cacheClass
	err   error
}

// parkCtx closes parked on the first call of Done: a do caller reaches
// it only when it waits on another caller's computation.
type parkCtx struct {
	context.Context
	once   sync.Once
	parked chan struct{}
}

func (c *parkCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.parked) })
	return c.Context.Done()
}

// fuzzCall is one do call in progress.
type fuzzCall struct {
	key     string
	cancel  context.CancelFunc
	release chan fuzzResult // a leader's computation returns what it reads here
	ret     chan outcome
}

// fuzzSide drives one implementation's do, remembering its open
// computations (in the order they were led) and its waiters.
type fuzzSide struct {
	do        func(context.Context, string, func() ([]byte, cacheClass, error)) ([]byte, string, error)
	leaders   []*fuzzCall
	followers []*fuzzCall
}

// start calls do on key in a goroutine and reports what became of it:
// "answered" (with the outcome), "led" or "waits".
func (s *fuzzSide) start(t *testing.T, key string) (string, outcome) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	pc := &parkCtx{Context: ctx, parked: make(chan struct{})}
	fc := &fuzzCall{key: key, cancel: cancel, release: make(chan fuzzResult), ret: make(chan outcome, 1)}
	entered := make(chan struct{})
	timer := time.NewTimer(fuzzWait)
	defer timer.Stop()
	go func() {
		body, src, err := s.do(pc, key, func() ([]byte, cacheClass, error) {
			close(entered)
			r := <-fc.release
			return r.body, r.class, r.err
		})
		fc.ret <- outcome{body, src, err}
	}()
	select {
	case o := <-fc.ret:
		cancel()
		return "answered", o
	case <-entered:
		s.leaders = append(s.leaders, fc)
		return "led", outcome{}
	case <-pc.parked:
		s.followers = append(s.followers, fc)
		return "waits", outcome{}
	case <-timer.C:
		t.Fatalf("do %s neither answered, led nor waited", key)
	}
	return "", outcome{}
}

// settle hands the i'th open computation its result and collects what
// its leader, then each of its waiters in arrival order, gave back.
func (s *fuzzSide) settle(t *testing.T, i int, r fuzzResult) []outcome {
	t.Helper()
	leader := s.leaders[i]
	s.leaders = append(s.leaders[:i], s.leaders[i+1:]...)
	leader.release <- r
	outs := []outcome{recvOutcome(t, leader)}
	waiting := s.followers[:0]
	for _, f := range s.followers {
		if f.key == leader.key {
			outs = append(outs, recvOutcome(t, f))
		} else {
			waiting = append(waiting, f)
		}
	}
	s.followers = waiting
	return outs
}

// abandon cancels the i'th waiter's context and returns its outcome.
func (s *fuzzSide) abandon(t *testing.T, i int) outcome {
	t.Helper()
	f := s.followers[i]
	s.followers = append(s.followers[:i], s.followers[i+1:]...)
	f.cancel()
	return recvOutcome(t, f)
}

func recvOutcome(t *testing.T, fc *fuzzCall) outcome {
	t.Helper()
	timer := time.NewTimer(fuzzWait)
	defer timer.Stop()
	select {
	case o := <-fc.ret:
		fc.cancel()
		return o
	case <-timer.C:
		t.Fatalf("do %s did not return", fc.key)
	}
	return outcome{}
}
