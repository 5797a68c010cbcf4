package ablation

import (
	"context"

	"permadead/internal/core"
	"permadead/internal/fetch"
	"permadead/internal/simclock"
	"permadead/internal/simweb"
	"permadead/internal/softerror"
)

// The false-dead ablation: over a universe with transient-fault
// injection enabled, how many genuinely alive links does each fetch
// policy misjudge as dead at study time? The baseline "genuinely
// alive" set is measured through a fault-free transport — the same
// state machine with injection switched off — so the experiment
// isolates exactly the transient component of the §3 false-dead story.

// RetryPolicySpec names one fetch policy for FalseDeadSweep.
type RetryPolicySpec struct {
	// Key is a short machine-stable identifier ("single", "retry",
	// "confirm") used in grid cells and benchmark names; Label is the
	// human-facing figure legend.
	Key    string
	Label  string
	Policy fetch.RetryPolicy
}

// DefaultRetryPolicySpecs is the single-GET → retry → confirmation
// ladder the deliverable figure compares: IABot's one GET, a
// production retry policy, and retries plus consecutive-failed-checks
// confirmation spaced 45 simulated days apart (wide enough to escape
// the injected study-time fault windows).
func DefaultRetryPolicySpecs() []RetryPolicySpec {
	return []RetryPolicySpec{
		{Key: "single", Label: "single GET (IABot)", Policy: fetch.SingleGET()},
		{Key: "retry", Label: "3 attempts + backoff", Policy: fetch.DefaultRetryPolicy()},
		{Key: "confirm", Label: "3 attempts × 3 checks / 45d", Policy: fetch.ConfirmationPolicy(3, 45)},
	}
}

// FalseDeadPoint is one policy's outcome over the fault-injected
// universe.
type FalseDeadPoint struct {
	Label string
	// TrulyAlive is the number of sampled links that answer a final
	// 200 through the fault-free transport at study time.
	TrulyAlive int
	// FalseDead is how many of those the policy still judged dead
	// (non-200 after all retries and checks).
	FalseDead int
	// Rate is FalseDead / TrulyAlive.
	Rate float64
	// Fetches is the total number of HTTP fetches the policy spent
	// over the truly-alive links.
	Fetches int64
	// MaxFetchesPerLink is the policy's worst-case fetch count for one
	// link (attempts × checks).
	MaxFetchesPerLink int
}

// deadResult is the sweep's verdict criterion: a link is judged dead
// when the final status is not 200 OR the 200 body reads as a parked
// domain or soft-404 boilerplate. Both the fault-free truth baseline
// and the policy fetches apply the SAME criterion, so scenarios that
// serve healthy-status garbage (parking waves) count as false-dead
// verdicts instead of silently passing a status-only check.
func deadResult(res fetch.Result) bool {
	if res.FinalStatus != 200 {
		return true
	}
	return softerror.LooksSoftError(res.Body)
}

// FalseDeadSweep measures each policy's false-dead rate at studyTime.
// Only the truly-alive links are fetched under the policies: a link
// that is dead fault-free cannot be false-dead, and the paper's
// question is precisely how often checkers kill living links.
// Everything is deterministic per universe seed: fault decisions are
// stateless hashes and the Retrier's jitter is seeded.
func FalseDeadSweep(world *simweb.World, records []core.LinkRecord, studyTime simclock.Day, specs []RetryPolicySpec) []FalseDeadPoint {
	ctx := context.Background()
	truth := fetch.New(simweb.NewFaultFreeTransport(world, studyTime))
	var alive []string
	for i := range records {
		if !deadResult(truth.Fetch(ctx, records[i].URL)) {
			alive = append(alive, records[i].URL)
		}
	}

	out := make([]FalseDeadPoint, 0, len(specs))
	for _, spec := range specs {
		rt := fetch.NewRetrier(fetch.New(simweb.NewTransport(world, studyTime)), spec.Policy)
		rt.Day = int(studyTime)
		rt.Sleep = fetch.NopSleep
		pt := FalseDeadPoint{Label: spec.Label, TrulyAlive: len(alive)}
		attempts := spec.Policy.MaxAttempts
		if attempts < 1 {
			attempts = 1
		}
		checks := spec.Policy.ConfirmChecks
		if checks < 1 {
			checks = 1
		}
		pt.MaxFetchesPerLink = attempts * checks
		for _, url := range alive {
			if deadResult(rt.Fetch(ctx, url)) {
				pt.FalseDead++
			}
		}
		pt.Fetches = rt.Stats.Attempts.Load()
		if pt.TrulyAlive > 0 {
			pt.Rate = float64(pt.FalseDead) / float64(pt.TrulyAlive)
		}
		out = append(out, pt)
	}
	return out
}
