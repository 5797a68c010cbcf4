package simweb

import (
	"permadead/internal/hashx"
	"permadead/internal/simclock"
)

// Transient-fault injection. A Site may carry FaultWindows: bounded
// spans of days during which requests probabilistically fail in a
// transient way (overload 503s, rate-limit 429s, connection timeouts,
// DNS flaps) even though the underlying page is fine. This is the
// failure mode the paper's §3 blames for a share of false "permanently
// dead" verdicts: the link checker caught the site on a bad day.
//
// Windows also model bounded LIFECYCLE scenarios past PR 5's transient
// faults: paywall rollouts (402), geo-blocks against the checker's
// vantage (403), and parking waves (a lapsed-then-re-registered domain
// serving a 200 parked page). These typically run at Rate 1 — retrying
// inside the window never helps; only checks spaced past it do — which
// is exactly what the per-scenario ablation grid measures.
//
// Fault decisions are stateless and deterministic: whether a window
// fires is a pure hash of (window seed, day, attempt number), so the
// same universe seed always yields the same fault schedule, any
// concurrency order observes identical outcomes, and a retrying client
// can genuinely succeed on a later attempt within the same simulated
// day. The attempt number travels on requests via AttemptHeader;
// ground-truth readers (the archive crawler, ablation baselines) pass
// NoFaultAttempt to bypass injection entirely.

// FaultMode is the transient failure a window injects.
type FaultMode uint8

const (
	// FaultServerBusy answers 503 Service Unavailable with a
	// Retry-After header — an overloaded origin or maintenance page.
	FaultServerBusy FaultMode = iota
	// FaultRateLimit answers 429 Too Many Requests with Retry-After —
	// the crawler tripped the site's rate limiter.
	FaultRateLimit
	// FaultTimeout hangs the connection until the client deadline.
	FaultTimeout
	// FaultDNSFlap fails hostname resolution — an expiring lease or a
	// flaky resolver, not a lapsed registration.
	FaultDNSFlap
	// FaultPaywall answers 402 Payment Required — the publisher moved
	// the page behind a paywall for the window's duration. The content
	// still exists; the checker just cannot see it.
	FaultPaywall
	// FaultGeoBlock answers 403 with a region-denial page — the site
	// blocks the checker's vantage point, not the world.
	FaultGeoBlock
	// FaultParking serves a 200 parked-domain page — a registrar
	// interregnum (lapsed then re-registered) during which the URL
	// "works" but the content is gone. Status-based checkers see a
	// healthy page; only content inspection catches it.
	FaultParking
)

func (m FaultMode) String() string {
	switch m {
	case FaultServerBusy:
		return "503"
	case FaultRateLimit:
		return "429"
	case FaultTimeout:
		return "timeout"
	case FaultDNSFlap:
		return "dns-flap"
	case FaultPaywall:
		return "paywall"
	case FaultGeoBlock:
		return "geo-block"
	case FaultParking:
		return "parking"
	default:
		return "unknown"
	}
}

// NoFaultAttempt, passed as the attempt number, bypasses fault
// evaluation: the caller sees the site's true lifecycle state. The
// archive crawler uses it (archival crawlers retry offline until a
// capture succeeds), as do ablation ground-truth baselines.
const NoFaultAttempt = -1

// FaultWindow is one transient-fault span on a site. The window is
// active on days d with From <= d < To (To == simclock.Never leaves it
// open-ended). While active, each (day, attempt) pair independently
// fails with probability Rate.
type FaultWindow struct {
	From, To simclock.Day
	Mode     FaultMode
	// Rate is the per-attempt failure probability in [0, 1].
	Rate float64
	// RetryAfterSec is the Retry-After value advertised by 503/429
	// fault responses (default 120 when zero).
	RetryAfterSec int
	// Seed decorrelates this window's fault schedule from every other
	// window's.
	Seed uint64
}

// ActiveOn reports whether the window covers the given day.
func (fw FaultWindow) ActiveOn(day simclock.Day) bool {
	return !day.Before(fw.From) && (!fw.To.Valid() || day.Before(fw.To))
}

// fires decides, deterministically, whether this window faults the
// given (day, attempt) pair.
func (fw FaultWindow) fires(day simclock.Day, attempt int) bool {
	if attempt < 0 || fw.Rate <= 0 || !fw.ActiveOn(day) {
		return false
	}
	x := hashx.Mix64(fw.Seed ^ hashx.Mix64(uint64(int64(day))) ^ hashx.Mix64(uint64(int64(attempt))+0x51ab))
	return float64(x>>11)/float64(1<<53) < fw.Rate
}

// retryAfter returns the effective Retry-After advertisement.
func (fw FaultWindow) retryAfter() int {
	if fw.RetryAfterSec > 0 {
		return fw.RetryAfterSec
	}
	return 120
}

// SuspectUntil reports whether any transient-fault window is active on
// the given day — in which case a dead verdict measured that day is
// suspect (the checker may have caught the site on a bad day, the §3
// false-dead mechanism) — and the earliest day by which every window
// active on that day has expired, i.e. the first day a re-check is
// guaranteed clear of those windows. When some active window is
// open-ended (To == simclock.Never) there is no such day and the
// second return is simclock.Never; callers fall back to their normal
// re-check cadence.
func (s *Site) SuspectUntil(day simclock.Day) (until simclock.Day, suspect bool) {
	until = simclock.Day(0)
	for _, fw := range s.Faults {
		if fw.Rate <= 0 || !fw.ActiveOn(day) {
			continue
		}
		suspect = true
		if !fw.To.Valid() {
			return simclock.Never, true
		}
		if fw.To.After(until) {
			until = fw.To
		}
	}
	if !suspect {
		return 0, false
	}
	return until, true
}

// faultAt returns the first window that fires for (day, attempt).
func (s *Site) faultAt(day simclock.Day, attempt int) (FaultWindow, bool) {
	for _, fw := range s.Faults {
		if fw.fires(day, attempt) {
			return fw, true
		}
	}
	return FaultWindow{}, false
}

// faultResult maps a fired window to its transport-level outcome.
func faultResult(s *Site, fw FaultWindow) Result {
	switch fw.Mode {
	case FaultDNSFlap:
		return Result{Kind: KindDNSFailure}
	case FaultTimeout:
		return Result{Kind: KindTimeout}
	case FaultPaywall:
		return Result{Kind: KindResponse, Status: 402, Body: paywallBody(s)}
	case FaultGeoBlock:
		return Result{Kind: KindResponse, Status: 403, Body: geoBlockBody(s)}
	case FaultParking:
		// 200 with a parked-domain page: the one scenario a status-code
		// checker cannot catch.
		return Result{Kind: KindResponse, Status: 200, Body: parkedBody(s)}
	case FaultRateLimit:
		return Result{
			Kind:          KindResponse,
			Status:        429,
			Body:          rateLimitBody(s),
			RetryAfterSec: fw.retryAfter(),
		}
	default: // FaultServerBusy
		return Result{
			Kind:          KindResponse,
			Status:        503,
			Body:          busyBody(s),
			RetryAfterSec: fw.retryAfter(),
		}
	}
}
