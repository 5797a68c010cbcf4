package simclock

import (
	"fmt"
	"sync"
)

// Clock is a tickable simulated clock: a current Day that only moves
// forward. Long-running components (the verdict monitor) read "now"
// from a Clock instead of pinning a single study day, and tests drive
// time explicitly — there is no wall-clock coupling, so every schedule
// derived from a Clock is deterministic.
//
// Safe for concurrent use. Reads never block behind an in-progress
// AdvanceTo.
type Clock struct {
	mu  sync.RWMutex
	day Day
}

// NewClock returns a clock standing at start.
func NewClock(start Day) *Clock {
	return &Clock{day: start}
}

// Now returns the clock's current day.
func (c *Clock) Now() Day {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.day
}

// AdvanceTo moves the clock to day, which must not precede the
// current day.
func (c *Clock) AdvanceTo(day Day) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if day.Before(c.day) {
		return fmt.Errorf("simclock: cannot rewind clock from %v to %v", c.day, day)
	}
	c.day = day
	return nil
}
