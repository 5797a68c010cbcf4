package archive

import (
	"errors"
	"time"

	"permadead/internal/simclock"
	"permadead/internal/urlutil"
)

// The Wayback Availability API (§4.1): given a URL and a desired
// timestamp, return the closest usable capture. Real lookups take
// variable time — for some URLs, long enough that IABot's efficiency
// timeout fires and the bot concludes (wrongly) that no copies exist.
// The simulation models per-URL lookup latency deterministically so
// that policy interaction is reproducible.

// ErrAvailabilityTimeout is returned by Query when the simulated
// lookup latency exceeds the caller's timeout.
var ErrAvailabilityTimeout = errors.New("archive: availability lookup timed out")

// DefaultLookupLatency is the baseline per-lookup latency when no
// override is set.
const DefaultLookupLatency = 120 * time.Millisecond

// SetLookupLatency overrides the simulated Availability API latency
// for one URL (scheme/www-insensitively keyed, like snapshots).
func (a *Archive) SetLookupLatency(url string, d time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.checkWritable("SetLookupLatency")
	a.latency[urlutil.SchemeAgnosticKey(url)] = int(d / time.Millisecond)
}

// LookupLatency returns the simulated latency of an availability
// lookup for url.
func (a *Archive) LookupLatency(url string) time.Duration {
	key := urlutil.SchemeAgnosticKey(url)
	var ms int
	var ok bool
	if frozen, unlock := a.rlock(); frozen {
		ms, ok = a.snaps.latency(key)
	} else {
		ms, ok = a.latency[key]
		unlock()
	}
	if !ok {
		return DefaultLookupLatency
	}
	return time.Duration(ms) * time.Millisecond
}

// AvailabilityQuery is one request to the Availability API.
type AvailabilityQuery struct {
	// URL to look up.
	URL string
	// Want is the desired capture day; the closest capture wins.
	Want simclock.Day
	// Before, when positive, restricts results to captures strictly
	// earlier than the given day (used to ask "what existed before the
	// link was marked dead?"). Zero or Never means unbounded.
	Before simclock.Day
	// AsOf, when positive, hides captures taken after the given day —
	// a bot scanning in 2018 cannot see copies captured in 2020. Zero
	// or Never means "now" (everything visible).
	AsOf simclock.Day
	// Accept filters candidate snapshots (nil accepts all). IABot
	// passes a filter accepting only initial-status-200, non-redirect
	// captures.
	Accept func(Snapshot) bool
	// Timeout bounds the simulated lookup; zero means no bound.
	Timeout time.Duration
}

// EffectiveAccept folds the query's Before/AsOf bounds into its Accept
// filter and returns the per-snapshot predicate the lookup actually
// applies. It is exported so layers that aggregate archives
// (internal/federation) evaluate candidate snapshots with exactly the
// semantics of a single-archive lookup instead of re-deriving — and
// eventually diverging from — the composition.
func (q AvailabilityQuery) EffectiveAccept() func(Snapshot) bool {
	accept := q.Accept
	if q.Before > 0 {
		inner := accept
		accept = func(s Snapshot) bool {
			if !s.Day.Before(q.Before) {
				return false
			}
			return inner == nil || inner(s)
		}
	}
	if q.AsOf > 0 {
		inner := accept
		accept = func(s Snapshot) bool {
			if s.Day.After(q.AsOf) {
				return false
			}
			return inner == nil || inner(s)
		}
	}
	return accept
}

// Query serves an availability lookup. It returns
// ErrAvailabilityTimeout when the simulated latency exceeds
// q.Timeout — the caller cannot distinguish "slow" from "absent",
// exactly the failure mode §4.1 documents.
func (a *Archive) Query(q AvailabilityQuery) (Snapshot, bool, error) {
	if q.Timeout > 0 && a.LookupLatency(q.URL) > q.Timeout {
		return Snapshot{}, false, ErrAvailabilityTimeout
	}
	snap, ok := a.Closest(q.URL, q.Want, q.EffectiveAccept())
	return snap, ok, nil
}

// AcceptUsable is the filter IABot applies when looking for a copy to
// patch a broken link with: the capture's initial status must be 200 —
// archived redirections are conservatively ignored (§4.2).
func AcceptUsable(s Snapshot) bool {
	return s.InitialStatus == 200
}

// AcceptAny accepts every snapshot.
func AcceptAny(Snapshot) bool { return true }
