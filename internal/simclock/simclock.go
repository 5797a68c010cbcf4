// Package simclock provides the simulated timeline used throughout the
// reproduction. The study's world evolves at day granularity between 2004
// (before the first links are posted) and March 2022 (when the paper's
// measurements were taken), so a Day is simply a count of days since the
// simulation epoch.
//
// Using an explicit simulated clock instead of time.Now keeps every
// component deterministic: the synthetic web answers requests "as of" a
// Day, the archive records captures at a Day, and Wikipedia edit history
// stores the Day of every revision.
package simclock

import (
	"fmt"
	"time"
)

// Epoch is day zero of the simulation: January 1, 2004 (UTC). Wikipedia
// predates this, but the paper's dataset of permanently dead links spans
// roughly 15 years ending March 2022 (§2.4), so a 2004 epoch comfortably
// covers every event of interest.
var Epoch = time.Date(2004, time.January, 1, 0, 0, 0, 0, time.UTC)

// Day is a simulated date, counted in days since Epoch.
type Day int

// Special sentinel values.
const (
	// Never marks an event that does not occur (e.g. a page that is
	// never deleted).
	Never Day = -1
)

// StudyTime is the Day on which the paper's live-web measurements were
// taken: March 15, 2022 (§2.4, "Over the course of March 2022").
var StudyTime = FromTime(time.Date(2022, time.March, 15, 0, 0, 0, 0, time.UTC))

// ResampleTime is the Day of the paper's representativeness re-crawl:
// September 15, 2022 (§2.4, "Later, in September 2022").
var ResampleTime = FromTime(time.Date(2022, time.September, 15, 0, 0, 0, 0, time.UTC))

// FromTime converts a wall-clock time to a simulated Day, truncating to
// day granularity.
func FromTime(t time.Time) Day {
	return Day(t.Sub(Epoch) / (24 * time.Hour))
}

// FromDate builds a Day from a calendar date.
func FromDate(year int, month time.Month, day int) Day {
	return FromTime(time.Date(year, month, day, 0, 0, 0, 0, time.UTC))
}

// Time converts the Day back to a wall-clock time at midnight UTC.
func (d Day) Time() time.Time {
	return Epoch.Add(time.Duration(d) * 24 * time.Hour)
}

// Year reports the calendar year the Day falls in.
func (d Day) Year() int { return d.Time().Year() }

// Valid reports whether the Day is a real date (not the Never sentinel
// and not before the epoch).
func (d Day) Valid() bool { return d >= 0 }

// Before reports whether d is strictly earlier than other. The Never
// sentinel is after every valid day, so an event that never happens is
// never "before" one that does.
func (d Day) Before(other Day) bool {
	if !d.Valid() {
		return false
	}
	if !other.Valid() {
		return true
	}
	return d < other
}

// After reports whether d is strictly later than other, with the same
// Never semantics as Before.
func (d Day) After(other Day) bool {
	return other.Before(d)
}

// Add returns the Day n days later (or earlier for negative n).
func (d Day) Add(n int) Day {
	if !d.Valid() {
		return d
	}
	return d + Day(n)
}

// Sub returns the number of days from other to d.
func (d Day) Sub(other Day) int { return int(d - other) }

// String formats the Day as an ISO date, or "never" for the sentinel.
func (d Day) String() string {
	if !d.Valid() {
		return "never"
	}
	return d.Time().Format("2006-01-02")
}

// Timestamp formats the Day in the Wayback Machine's 14-digit timestamp
// format (yyyyMMddhhmmss), which the archive package uses in snapshot
// URLs such as https://web.archive.org/web/20140102000000/http://...
func (d Day) Timestamp() string {
	if !d.Valid() {
		return "00000000000000"
	}
	return d.Time().Format("20060102150405")
}

// ParseTimestamp parses a Wayback-style 14-digit (or shorter prefix)
// timestamp back into a Day.
func ParseTimestamp(ts string) (Day, error) {
	const full = "20060102150405"
	if len(ts) < 4 || len(ts) > len(full) {
		return 0, fmt.Errorf("simclock: malformed timestamp %q", ts)
	}
	t, err := time.ParseInLocation(full[:len(ts)], ts, time.UTC)
	if err != nil {
		return 0, fmt.Errorf("simclock: malformed timestamp %q: %w", ts, err)
	}
	return FromTime(t), nil
}
