package federation

import (
	"context"
	"errors"
	"time"

	"permadead/internal/archive"
)

// ErrMemberDown marks a lookup against an administratively-down
// member. It surfaces inside Result.MemberErrors: the federation
// degrades to the surviving members' coverage instead of failing.
var ErrMemberDown = errors.New("federation: member down")

// MemberError records one member's lookup failure during a federated
// query. A later member's hit does not erase it: the caller can tell
// "every member agreed the copies are absent" apart from "the primary
// was unreachable but a secondary answered" — partial coverage, not
// certainty.
type MemberError struct {
	Member string
	Err    error
}

func (e MemberError) Error() string { return e.Member + ": " + e.Err.Error() }

// Unwrap exposes the underlying failure to errors.Is/As.
func (e MemberError) Unwrap() error { return e.Err }

// Result is one hedged availability lookup's outcome.
type Result struct {
	// Snapshot/Member identify the winning copy when Found.
	Snapshot archive.Snapshot
	Member   string
	Found    bool
	// Elapsed is the simulated time the federated lookup took: the
	// winner's completion, or how long the federation waited before
	// concluding no member holds a usable copy.
	Elapsed time.Duration
	// HedgeFired reports that secondaries were started before the
	// primary's outcome was known; HedgeWin that a hedged secondary
	// beat the primary to the answer.
	HedgeFired bool
	HedgeWin   bool
	// MemberErrors lists members that were consulted and failed (down
	// or over budget), in priority order — partial coverage rides
	// along with the answer instead of vanishing behind it.
	MemberErrors []MemberError
}

// consult is one member's planned participation in a lookup.
type consult struct {
	idx   int
	lat   time.Duration
	start time.Duration
	// done is when the member's outcome becomes known: completion for
	// an answer, the budget for a timeout, start for a down member.
	done time.Duration
	snap archive.Snapshot
	hit  bool
	err  error
}

// lookupPlan is the deterministic simulation of one hedged lookup.
// The planner decides verdict, winner, and timing; the wall-clock
// realizer (TimeScale > 0) only makes the decided timings real.
type lookupPlan struct {
	consults   []consult
	winner     int // index into consults, -1 when no usable copy
	elapsed    time.Duration
	hedgeFired bool
	hedgeWin   bool
}

// noDeadline stands in for "never" when a start/deadline is unbounded.
const noDeadline = time.Duration(1<<63 - 1)

// plan simulates the hedged lookup: the primary starts immediately;
// secondaries start at the hedge deadline (budget × hedge fraction) if
// the primary has not answered by then, or as soon as the primary is
// known to have failed or missed, whichever is earlier. Every started
// member runs under the ONE federation-wide budget; the first usable
// copy — earliest completion, member priority breaking ties — wins and
// the rest are cancelled. With no budget there is no hedge deadline,
// so the plan degrades to sequential fallthrough at primary completion.
func (f *Federation) plan(q archive.AvailabilityQuery) lookupPlan {
	budget := q.Timeout
	if budget == 0 {
		budget = f.budget
	}
	accept := q.EffectiveAccept()

	probe := func(idx int, start time.Duration) consult {
		m := f.members[idx]
		c := consult{idx: idx, start: start}
		if m.Down() {
			c.done = start
			c.err = ErrMemberDown
			return c
		}
		c.lat = m.Latency(q.URL)
		c.done = start + c.lat
		if budget > 0 && c.done > budget {
			c.done = budget
			c.err = archive.ErrAvailabilityTimeout
			return c
		}
		c.snap, c.hit = f.members[idx].closest(q.URL, q.Want, accept)
		return c
	}

	p := lookupPlan{winner: -1}
	primary := probe(0, 0)
	p.consults = append(p.consults, primary)

	// When do the secondaries start, if ever?
	secondaryStart := noDeadline
	if primary.err != nil || !primary.hit {
		secondaryStart = primary.done // fallthrough on a known failure/miss
	}
	if budget > 0 && len(f.members) > 1 {
		hedgeDelay := time.Duration(float64(budget) * f.hedge)
		if hedgeDelay < secondaryStart && hedgeDelay < primary.done {
			// The primary has not answered by the hedge deadline —
			// whether it eventually hits, misses, or times out — so
			// fan out while it is still in flight.
			secondaryStart = hedgeDelay
			p.hedgeFired = true
		}
	}
	if secondaryStart != noDeadline {
		for i := 1; i < len(f.members); i++ {
			p.consults = append(p.consults, probe(i, secondaryStart))
		}
	}

	// First usable copy wins: earliest completion, priority tiebreak
	// (consults are already in priority order, so strict < keeps the
	// higher-priority member on ties).
	for i, c := range p.consults {
		if c.err != nil || !c.hit {
			continue
		}
		if p.winner < 0 || c.done < p.consults[p.winner].done {
			p.winner = i
		}
	}
	if p.winner >= 0 {
		p.elapsed = p.consults[p.winner].done
		p.hedgeWin = p.hedgeFired && p.consults[p.winner].idx != 0
	} else {
		for _, c := range p.consults {
			if c.done > p.elapsed {
				p.elapsed = c.done
			}
		}
	}
	return p
}

// Query runs one hedged availability lookup across the federation.
// The verdict is fully deterministic (decided by the plan); when the
// manifest sets a TimeScale the call also takes real wall-clock time —
// scaled simulated Elapsed — and loser members' in-flight lookups
// observe the shared context being cancelled.
//
// When no member yields a usable copy the error is
// archive.ErrAvailabilityTimeout if every member failure was a
// timeout, a joined error otherwise, and nil when the consulted
// members genuinely agree the copies are absent.
func (f *Federation) Query(ctx context.Context, q archive.AvailabilityQuery) (Result, error) {
	p := f.plan(q)

	f.stats.queries.Add(1)
	if p.hedgeFired {
		f.stats.hedgesFired.Add(1)
	}
	if p.hedgeWin {
		f.stats.hedgeWins.Add(1)
	}
	res := Result{
		Found:      p.winner >= 0,
		Elapsed:    p.elapsed,
		HedgeFired: p.hedgeFired,
		HedgeWin:   p.hedgeWin,
	}
	allTimeout := true
	for _, c := range p.consults {
		ms := f.stats.members[c.idx]
		ms.consulted.Add(1)
		ms.latencyNS.Add(int64(c.lat))
		switch {
		case c.err != nil:
			ms.errors.Add(1)
			res.MemberErrors = append(res.MemberErrors, MemberError{
				Member: f.members[c.idx].Spec.Name, Err: c.err,
			})
			if !errors.Is(c.err, archive.ErrAvailabilityTimeout) {
				allTimeout = false
			}
		case c.hit:
			ms.hits.Add(1)
		default:
			ms.misses.Add(1)
		}
	}
	if p.winner >= 0 {
		w := p.consults[p.winner]
		res.Snapshot = w.snap
		res.Member = f.members[w.idx].Spec.Name
	}

	if err := f.realize(ctx, p); err != nil {
		return res, err
	}

	if !res.Found && len(res.MemberErrors) > 0 {
		if allTimeout {
			return res, archive.ErrAvailabilityTimeout
		}
		errs := make([]error, len(res.MemberErrors))
		for i, me := range res.MemberErrors {
			errs[i] = me
		}
		return res, errors.Join(errs...)
	}
	return res, nil
}

// realize makes the planned timings real when TimeScale > 0: the call
// sleeps the scaled Elapsed, each consulted member's lookup runs as a
// goroutine sleeping its scaled completion under one shared context,
// and when the winner's answer arrives the context is cancelled — the
// losers genuinely observe ctx.Done() while still in flight.
func (f *Federation) realize(ctx context.Context, p lookupPlan) error {
	if f.scale <= 0 {
		for _, c := range p.consults {
			if c.err == nil && c.done > p.elapsed {
				f.stats.losersCancelled.Add(1)
			}
		}
		return nil
	}
	wall := func(d time.Duration) time.Duration {
		return time.Duration(float64(d) * f.scale)
	}
	flight, cancel := context.WithCancel(ctx)
	defer cancel()
	done := make(chan struct{}, len(p.consults))
	for _, c := range p.consults {
		c := c
		go func() {
			t := time.NewTimer(wall(c.done))
			defer t.Stop()
			select {
			case <-t.C:
			case <-flight.Done():
				if c.done > p.elapsed {
					f.stats.losersCancelled.Add(1)
				}
			}
			done <- struct{}{}
		}()
	}
	elapsed := time.NewTimer(wall(p.elapsed))
	defer elapsed.Stop()
	select {
	case <-elapsed.C:
	case <-ctx.Done():
		cancel()
		for range p.consults {
			<-done
		}
		return ctx.Err()
	}
	cancel()
	for range p.consults {
		<-done
	}
	return nil
}
