package monitor

import (
	"context"
	"net/url"

	"permadead/internal/fetch"
	"permadead/internal/simclock"
	"permadead/internal/simweb"
	"permadead/internal/softerror"
)

// Verdict is the monitor's two-state liveness judgment for a watched
// link. It is deliberately coarser than core.Verdict: the monitor
// answers "does this link work right now?", and leaves the archive-side
// taxonomy (usable copies, typos, coverage gaps) to the batch study.
type Verdict string

const (
	// VerdictUnknown: the link has been watched but not yet checked.
	// It never appears in the journal — the first assignment of a real
	// verdict is initial state, not a flip.
	VerdictUnknown Verdict = "unknown"
	// VerdictAlive: the final status after redirections was 200 and
	// the soft-404 probe did not object (§3's functional test).
	VerdictAlive Verdict = "alive"
	// VerdictDead: anything else — the state IABot's single-GET policy
	// would call broken (§2.1).
	VerdictDead Verdict = "dead"
)

// CheckResult is one liveness measurement of one URL on one day.
type CheckResult struct {
	Verdict Verdict
	// Category is the Figure 4 bucket of the fetch outcome ("200",
	// "404", "DNS Failure", "Timeout", "Other"), with "200 (soft
	// error)" for soft-404s.
	Category string
	// Suspect marks a dead verdict measured while the link's site had
	// an active transient-fault window: the checker may have caught the
	// site on a bad day (§3's false-dead mechanism).
	Suspect bool
	// RecheckAt, when valid and after the check day, asks the monitor
	// to re-check then instead of waiting out the full TTL — set to the
	// day the last active fault window closes, when that is knowable.
	RecheckAt simclock.Day
}

// Checker measures one URL's liveness as of a simulated day. The checks
// of one due-day run concurrently, so implementations must be safe for
// concurrent use.
type Checker interface {
	Check(ctx context.Context, url string, day simclock.Day) CheckResult
}

// LiveChecker is the production Checker: a single GET against the
// simulated web as of the check day (IABot's policy, §2.1), upgraded
// with the study's soft-404 probe for 200s (§3), plus fault-window
// awareness — a dead verdict measured while the site is inside a
// transient-fault window is flagged suspect and scheduled for re-check
// the day the window clears, rather than after the full TTL.
type LiveChecker struct {
	World *simweb.World
}

// Check implements Checker.
func (lc *LiveChecker) Check(ctx context.Context, rawURL string, day simclock.Day) CheckResult {
	client := fetch.New(simweb.NewTransport(lc.World, day))
	res := client.Fetch(ctx, rawURL)
	cr := CheckResult{Verdict: VerdictDead, Category: res.Category.String()}
	if res.Category == fetch.Cat200 {
		v := softerror.NewDetector(client).Check(ctx, res.URL, res)
		if v.Broken {
			cr.Category = "200 (soft error)"
		} else {
			cr.Verdict = VerdictAlive
		}
	}
	if cr.Verdict == VerdictDead {
		cr.Suspect, cr.RecheckAt = lc.suspectWindow(rawURL, day)
	}
	return cr
}

// suspectWindow consults the site's fault schedule: a dead verdict
// measured inside an active window is suspect, and when every active
// window is bounded the re-check lands on the day the last one closes.
func (lc *LiveChecker) suspectWindow(rawURL string, day simclock.Day) (bool, simclock.Day) {
	u, err := url.Parse(rawURL)
	if err != nil {
		return false, 0
	}
	site := lc.World.Site(u.Hostname())
	if site == nil {
		return false, 0
	}
	until, suspect := site.SuspectUntil(day)
	if !suspect {
		return false, 0
	}
	if until.Valid() && until.After(day) {
		return true, until
	}
	return true, 0
}
