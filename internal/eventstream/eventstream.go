// Package eventstream simulates the capture services through which the
// Internet Archive learns about new Wikipedia external links (§5.1):
// the Wikipedia Near Real Time IRC feed (WNRT, used 2013–2018) and the
// Wikipedia EventStream (2018 onward). A Service subscribes to a
// simulated wiki's link-addition events and asks the capture crawler
// to archive each link some delay after it was posted.
//
// The paper's central §5.1 finding is that, despite these services,
// the first capture of many links happened months or years after
// posting — by which time the link had already died. The Service's
// delay model is therefore the key knob: it decides whether a link is
// picked up at all, and how long after posting its first capture is
// attempted.
package eventstream

import (
	"sync"

	"permadead/internal/archive"
	"permadead/internal/simclock"
	"permadead/internal/wikimedia"
)

// Eras of the two real capture services (§5.1).
var (
	// WNRTStart is when the Wikipedia Near Real Time capture service
	// began operating (2013).
	WNRTStart = simclock.FromDate(2013, 1, 1)
	// EventStreamStart is when the EventStream-based service took over
	// (2018).
	EventStreamStart = simclock.FromDate(2018, 1, 1)
)

// DelayModel decides, for one link-added event, whether the capture
// service picks the link up and after how many days it attempts the
// first capture.
type DelayModel func(ev wikimedia.LinkAddedEvent) (delayDays int, pickedUp bool)

// Service archives newly posted links.
type Service struct {
	// Crawler performs the captures.
	Crawler *archive.Crawler
	// ActiveFrom is the first day the service operates; events before
	// it are ignored (links posted before 2013 had no capture-on-post
	// service at all).
	ActiveFrom simclock.Day
	// Delay is the pickup/delay model. Nil uses DefaultDelay.
	Delay DelayModel

	mu       sync.Mutex
	captures []Attempt
}

// Attempt records one capture the service attempted.
type Attempt struct {
	URL       string
	Posted    simclock.Day
	Attempted simclock.Day
	OK        bool
}

// New builds a service over the crawler, active from the WNRT era.
func New(c *archive.Crawler) *Service {
	return &Service{Crawler: c, ActiveFrom: WNRTStart}
}

// Attach subscribes the service to the wiki's link-addition events.
// Call before populating the wiki so every posted link is observed
// (registration is safe at any time, but only covers later edits).
func (s *Service) Attach(w *wikimedia.Wiki) {
	w.Subscribe(s.OnLinkAdded)
}

// OnLinkAdded handles one link-addition event: if the service is
// active and the delay model picks the link up, the crawler captures
// it delayDays later. Because the simulated web is queryable at any
// day, the capture executes immediately against the link's state as
// of the scheduled day.
func (s *Service) OnLinkAdded(ev wikimedia.LinkAddedEvent) {
	if ev.Day.Before(s.ActiveFrom) {
		return
	}
	delayFn := s.Delay
	if delayFn == nil {
		delayFn = DefaultDelay
	}
	delay, ok := delayFn(ev)
	if !ok {
		return
	}
	at := ev.Day.Add(delay)
	_, err := s.Crawler.Capture(ev.URL, at)
	s.mu.Lock()
	s.captures = append(s.captures, Attempt{
		URL: ev.URL, Posted: ev.Day, Attempted: at, OK: err == nil,
	})
	s.mu.Unlock()
}

// Attempts returns a copy of the capture log.
func (s *Service) Attempts() []Attempt {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Attempt, len(s.captures))
	copy(out, s.captures)
	return out
}

// DefaultDelay is a deterministic heavy-tailed pickup model: most
// links are captured within days, a long tail only after months or
// years, and a fraction missed entirely. The distribution's shape
// follows Figure 5: mass from same-day out to multiple years.
func DefaultDelay(ev wikimedia.LinkAddedEvent) (int, bool) {
	h := hashString(ev.URL)
	// ~20% of links are never picked up by the on-post services.
	if h%100 < 20 {
		return 0, false
	}
	// Spread the rest log-uniformly between same-day and ~3 years.
	v := (h / 100) % 1000
	switch {
	case v < 300:
		return int(v % 2), true // same day or next day
	case v < 600:
		return 2 + int(v%28), true // within a month
	case v < 850:
		return 30 + int(v%335), true // within a year
	default:
		return 365 + int(v%730), true // one to three years
	}
}

// hashString is not hashx.FNV1a: its offset basis is one digit short of
// FNV's, and DefaultDelay's draws are defined by the values it yields.
func hashString(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
