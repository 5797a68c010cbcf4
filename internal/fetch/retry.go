// Retrier wraps Client with the robustness policy a production link
// checker runs and the paper's single-GET measurement conspicuously
// does not: bounded retries on transient failures with exponential
// backoff and deterministic jitter, Retry-After honoring, a per-link
// retry budget, and an optional IABot-style "confirmation" mode that
// requires N consecutive failed checks spaced D simulated days apart
// before a link counts as dead.
//
// Determinism: jitter is a pure hash of (JitterSeed, URL, attempt), so
// a given policy over a given universe always issues the same request
// schedule. Against a simweb transport the Retrier annotates each
// request with the attempt number (and, when Day is set, the simulated
// day), which is what lets a retry genuinely escape a transient-fault
// window.
package fetch

import (
	"context"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// Fetcher is the interface shared by Client and Retrier: a one-link
// live check (core's CheckLiveWith) measures through it without caring
// whether retries are on.
type Fetcher interface {
	Fetch(ctx context.Context, rawURL string) Result
}

var (
	_ Fetcher = (*Client)(nil)
	_ Fetcher = (*Retrier)(nil)
)

// Simulation annotation headers, mirrored from simweb so this package
// stays transport-agnostic (equality is asserted by tests).
const (
	simDayHeader     = "X-Sim-Day"
	simAttemptHeader = "X-Sim-Attempt"
)

// NoDay disables day annotation: all checks happen "now".
const NoDay = -1

// Transient reports whether a result is worth retrying: DNS failures,
// timeouts, rate limiting (429), and server errors (5xx). Hard
// verdicts (200, 404, 403, ...) are final.
func Transient(res Result) bool {
	switch res.Category {
	case CatDNSFailure, CatTimeout:
		return true
	}
	return res.FinalStatus == http.StatusTooManyRequests || res.FinalStatus >= 500
}

// RetryPolicy configures a Retrier. The zero value degenerates to a
// single GET with no rechecks — exactly the bare Client's behaviour.
type RetryPolicy struct {
	// MaxAttempts bounds HTTP fetches per check (minimum 1).
	MaxAttempts int
	// BaseBackoff is the pre-jitter delay before the first retry; each
	// further retry doubles it. Default 500ms when zero.
	BaseBackoff time.Duration
	// MaxBackoff caps the per-retry delay (0 = uncapped).
	MaxBackoff time.Duration
	// Budget caps the cumulative backoff spent on one link across all
	// checks; when the next planned delay would exceed what remains,
	// the Retrier gives up with the last observed result (0 = no cap).
	Budget time.Duration
	// RespectRetryAfter replaces the computed backoff with the
	// server's Retry-After advertisement when one was sent.
	RespectRetryAfter bool
	// JitterSeed decorrelates jitter between runs while keeping each
	// run deterministic.
	JitterSeed int64
	// ConfirmChecks, when > 1, enables confirmation mode: the link is
	// only reported dead after this many consecutive failed checks.
	// Any check that answers 200 ends the sequence alive.
	ConfirmChecks int
	// ConfirmSpacingDays separates consecutive checks in simulated
	// days (applied only when the Retrier has a Day).
	ConfirmSpacingDays int
}

// SingleGET is the paper's measurement policy: one GET, no retries, no
// confirmation.
func SingleGET() RetryPolicy { return RetryPolicy{MaxAttempts: 1} }

// DefaultRetryPolicy is a production-shaped retry policy: 3 attempts,
// 500ms base backoff doubling to at most 8s, a 30s per-link budget,
// honoring Retry-After.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts:       3,
		BaseBackoff:       500 * time.Millisecond,
		MaxBackoff:        8 * time.Second,
		Budget:            30 * time.Second,
		RespectRetryAfter: true,
	}
}

// ConfirmationPolicy is DefaultRetryPolicy plus IABot's consecutive-
// failed-checks rule: checks failed checks spaced spacingDays apart
// must all fail before the link counts dead.
func ConfirmationPolicy(checks, spacingDays int) RetryPolicy {
	p := DefaultRetryPolicy()
	p.ConfirmChecks = checks
	p.ConfirmSpacingDays = spacingDays
	return p
}

// RetryStats aggregates a Retrier's activity. Safe for concurrent use;
// multiple Retriers may share one (the serving layer does).
type RetryStats struct {
	Attempts          atomic.Int64 // HTTP fetches issued
	Retries           atomic.Int64 // fetches that were retries
	Checks            atomic.Int64 // confirmation checks run
	Rechecks          atomic.Int64 // checks beyond the first
	RetryAfterHonored atomic.Int64 // backoffs replaced by Retry-After
	BudgetExhausted   atomic.Int64 // links abandoned mid-retry on budget
	RescuedByRetry    atomic.Int64 // checks that succeeded on a retry
	RescuedByRecheck  atomic.Int64 // links alive only on a later check
}

// RetryStatsSnapshot is a point-in-time copy of RetryStats, shaped for
// JSON (the /metrics endpoint).
type RetryStatsSnapshot struct {
	Attempts          int64 `json:"attempts"`
	Retries           int64 `json:"retries"`
	Checks            int64 `json:"checks"`
	Rechecks          int64 `json:"rechecks"`
	RetryAfterHonored int64 `json:"retry_after_honored"`
	BudgetExhausted   int64 `json:"budget_exhausted"`
	RescuedByRetry    int64 `json:"rescued_by_retry"`
	RescuedByRecheck  int64 `json:"rescued_by_recheck"`
}

// Snapshot copies the counters.
func (st *RetryStats) Snapshot() RetryStatsSnapshot {
	return RetryStatsSnapshot{
		Attempts:          st.Attempts.Load(),
		Retries:           st.Retries.Load(),
		Checks:            st.Checks.Load(),
		Rechecks:          st.Rechecks.Load(),
		RetryAfterHonored: st.RetryAfterHonored.Load(),
		BudgetExhausted:   st.BudgetExhausted.Load(),
		RescuedByRetry:    st.RescuedByRetry.Load(),
		RescuedByRecheck:  st.RescuedByRecheck.Load(),
	}
}

// SleepFunc waits for d or until ctx is done (returning ctx's error).
type SleepFunc func(ctx context.Context, d time.Duration) error

// NopSleep elides backoff waits — simulated time: delays are pure
// accounting against the budget, not wall-clock.
func NopSleep(ctx context.Context, _ time.Duration) error { return ctx.Err() }

func realSleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Retrier applies a RetryPolicy on top of a Client. Construct with
// NewRetrier; the fields may then be adjusted before first use.
type Retrier struct {
	Client *Client
	Policy RetryPolicy
	// Day is the simulated day of the first check (NoDay disables day
	// annotation; confirmation spacing then has no day to advance).
	Day int
	// Stats receives counters; NewRetrier installs a private instance,
	// callers may swap in a shared one.
	Stats *RetryStats
	// Sleep implements backoff waits; defaults to a real timer. Use
	// NopSleep under simulated transports.
	Sleep SleepFunc
}

// NewRetrier wraps a Client with the given policy.
func NewRetrier(c *Client, p RetryPolicy) *Retrier {
	return &Retrier{Client: c, Policy: p, Day: NoDay, Stats: new(RetryStats), Sleep: realSleep}
}

// Fetch runs the full policy for one URL: up to ConfirmChecks checks,
// each up to MaxAttempts fetches, returning the first passing result
// or the last failing one.
func (r *Retrier) Fetch(ctx context.Context, rawURL string) Result {
	checks := r.Policy.ConfirmChecks
	if checks < 1 {
		checks = 1
	}
	day := r.Day
	attempt := 0
	budget := r.Policy.Budget
	var res Result
	for check := 0; check < checks; check++ {
		if check > 0 {
			r.Stats.Rechecks.Add(1)
			if day != NoDay {
				day += r.Policy.ConfirmSpacingDays
			}
		}
		r.Stats.Checks.Add(1)
		res = r.runCheck(ctx, rawURL, day, &attempt, &budget)
		if res.FinalStatus == http.StatusOK {
			if check > 0 {
				r.Stats.RescuedByRecheck.Add(1)
			}
			break
		}
		if ctx.Err() != nil {
			break
		}
	}
	res.Attempts = attempt
	return res
}

// runCheck is one check: a fetch plus transient-failure retries.
// attempt and budget persist across the checks of one link.
func (r *Retrier) runCheck(ctx context.Context, rawURL string, day int, attempt *int, budget *time.Duration) Result {
	max := r.Policy.MaxAttempts
	if max < 1 {
		max = 1
	}
	var res Result
	for try := 0; ; try++ {
		h := r.annotate(day, *attempt)
		*attempt++
		r.Stats.Attempts.Add(1)
		if try > 0 {
			r.Stats.Retries.Add(1)
		}
		res = r.Client.FetchWithHeaders(ctx, rawURL, h)
		if !Transient(res) {
			if try > 0 {
				r.Stats.RescuedByRetry.Add(1)
			}
			return res
		}
		if try+1 >= max || ctx.Err() != nil {
			return res
		}
		d := r.backoff(rawURL, try, res)
		if r.Policy.Budget > 0 {
			if d > *budget {
				r.Stats.BudgetExhausted.Add(1)
				return res
			}
			*budget -= d
		}
		if err := r.sleep(ctx, d); err != nil {
			return res
		}
	}
}

// annotate builds the simulation headers for one attempt. Attempt 0
// with no day produces nil — indistinguishable from a bare Client.
func (r *Retrier) annotate(day, attempt int) http.Header {
	if day == NoDay && attempt == 0 {
		return nil
	}
	h := make(http.Header, 2)
	if day != NoDay {
		h.Set(simDayHeader, strconv.Itoa(day))
	}
	if attempt > 0 {
		h.Set(simAttemptHeader, strconv.Itoa(attempt))
	}
	return h
}

// backoff computes the delay before retry number try+1: exponential
// from BaseBackoff with deterministic jitter in [50%, 100%], overridden
// by the server's Retry-After when the policy honors it.
func (r *Retrier) backoff(rawURL string, try int, last Result) time.Duration {
	if r.Policy.RespectRetryAfter && last.RetryAfter > 0 {
		d := last.RetryAfter
		if r.Policy.MaxBackoff > 0 && d > r.Policy.MaxBackoff {
			d = r.Policy.MaxBackoff
		}
		r.Stats.RetryAfterHonored.Add(1)
		return d
	}
	d := r.Policy.BaseBackoff
	if d <= 0 {
		d = 500 * time.Millisecond
	}
	for i := 0; i < try; i++ {
		d *= 2
		if r.Policy.MaxBackoff > 0 && d >= r.Policy.MaxBackoff {
			break
		}
	}
	if r.Policy.MaxBackoff > 0 && d > r.Policy.MaxBackoff {
		d = r.Policy.MaxBackoff
	}
	// Half-jitter: keep at least 50% of the computed delay so budgets
	// stay meaningful, derived from a hash so runs are reproducible.
	frac := jitterFrac(uint64(r.Policy.JitterSeed), rawURL, try)
	return d/2 + time.Duration(frac*float64(d/2))
}

func (r *Retrier) sleep(ctx context.Context, d time.Duration) error {
	if r.Sleep != nil {
		return r.Sleep(ctx, d)
	}
	return realSleep(ctx, d)
}

// jitterFrac hashes (seed, url, try) to a float in [0, 1).
func jitterFrac(seed uint64, rawURL string, try int) float64 {
	x := seed ^ 0x9e3779b97f4a7c15
	for i := 0; i < len(rawURL); i++ {
		x = (x ^ uint64(rawURL[i])) * 0x100000001b3
	}
	x ^= uint64(int64(try)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}
