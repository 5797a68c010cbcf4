package simclock

import (
	"testing"
	"time"
)

func TestFromDateRoundTrip(t *testing.T) {
	cases := []struct {
		y int
		m time.Month
		d int
	}{
		{2004, time.January, 1},
		{2004, time.January, 2},
		{2007, time.June, 15},
		{2015, time.December, 31},
		{2022, time.March, 15},
		{2022, time.September, 15},
	}
	for _, c := range cases {
		day := FromDate(c.y, c.m, c.d)
		back := day.Time()
		if back.Year() != c.y || back.Month() != c.m || back.Day() != c.d {
			t.Errorf("FromDate(%d,%v,%d) = %v, round-trips to %v", c.y, c.m, c.d, day, back)
		}
	}
}

func TestEpochIsDayZero(t *testing.T) {
	if got := FromTime(Epoch); got != 0 {
		t.Errorf("FromTime(Epoch) = %d, want 0", got)
	}
	if got := FromDate(2004, time.January, 2); got != 1 {
		t.Errorf("day after epoch = %d, want 1", got)
	}
}

func TestNeverSemantics(t *testing.T) {
	d := FromDate(2020, time.May, 1)
	if Never.Valid() {
		t.Error("Never should not be Valid")
	}
	if Never.Before(d) {
		t.Error("Never should not be Before any valid day")
	}
	if !d.Before(Never) {
		t.Error("a valid day should be Before Never")
	}
	if !Never.After(d) {
		t.Error("Never should be After any valid day")
	}
	if Never.Before(Never) {
		t.Error("Never should not be Before itself")
	}
}

func TestBeforeAfter(t *testing.T) {
	a := FromDate(2010, time.March, 1)
	b := FromDate(2010, time.March, 2)
	if !a.Before(b) || b.Before(a) {
		t.Error("Before ordering wrong")
	}
	if !b.After(a) || a.After(b) {
		t.Error("After ordering wrong")
	}
	if a.Before(a) || a.After(a) {
		t.Error("a day is neither before nor after itself")
	}
}

func TestAddSub(t *testing.T) {
	a := FromDate(2010, time.March, 1)
	b := a.Add(31)
	if b.Sub(a) != 31 {
		t.Errorf("Sub = %d, want 31", b.Sub(a))
	}
	if got := a.Add(-1).Add(1); got != a {
		t.Errorf("Add(-1).Add(1) = %v, want %v", got, a)
	}
	if got := Never.Add(5); got != Never {
		t.Errorf("Never.Add(5) = %v, want Never", got)
	}
}

func TestStringFormats(t *testing.T) {
	d := FromDate(2014, time.July, 9)
	if got := d.String(); got != "2014-07-09" {
		t.Errorf("String = %q", got)
	}
	if got := Never.String(); got != "never" {
		t.Errorf("Never.String = %q", got)
	}
	if got := d.Timestamp(); got != "20140709000000" {
		t.Errorf("Timestamp = %q", got)
	}
}

func TestParseTimestamp(t *testing.T) {
	d := FromDate(2014, time.July, 9)
	got, err := ParseTimestamp("20140709000000")
	if err != nil || got != d {
		t.Errorf("ParseTimestamp full = %v, %v", got, err)
	}
	// Short timestamps parse as prefixes.
	got, err = ParseTimestamp("2014")
	if err != nil || got.Year() != 2014 {
		t.Errorf("ParseTimestamp year = %v, %v", got, err)
	}
	got, err = ParseTimestamp("201407")
	if err != nil || got.Time().Month() != time.July {
		t.Errorf("ParseTimestamp month = %v, %v", got, err)
	}
	if _, err := ParseTimestamp("xx"); err == nil {
		t.Error("ParseTimestamp should reject garbage")
	}
	if _, err := ParseTimestamp(""); err == nil {
		t.Error("ParseTimestamp should reject empty")
	}
	if _, err := ParseTimestamp("201407090000001"); err == nil {
		t.Error("ParseTimestamp should reject over-long input")
	}
}

func TestTimestampRoundTrip(t *testing.T) {
	for _, d := range []Day{0, 100, 5000, StudyTime, ResampleTime} {
		got, err := ParseTimestamp(d.Timestamp())
		if err != nil || got != d {
			t.Errorf("round trip %v -> %q -> %v, %v", d, d.Timestamp(), got, err)
		}
	}
}

func TestStudyTimes(t *testing.T) {
	if StudyTime.Year() != 2022 || StudyTime.Time().Month() != time.March {
		t.Errorf("StudyTime = %v, want March 2022", StudyTime)
	}
	if !StudyTime.Before(ResampleTime) {
		t.Error("StudyTime should precede ResampleTime")
	}
}
