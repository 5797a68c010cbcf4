package wikimedia

import (
	"testing"

	"permadead/internal/simclock"
)

func TestFeedDeliversAddsAndRemoves(t *testing.T) {
	wiki := NewWiki()
	f := NewFeed(16)
	f.Attach(wiki)

	day := simclock.FromDate(2022, 4, 1)
	wiki.Create("Art", day, "U", "[http://a.simtest/1 A]")
	wiki.Edit("Art", day.Add(1), "U", "swap", "[http://b.simtest/2 B]")

	want := []LinkEvent{
		{Title: "Art", URL: "http://a.simtest/1", Day: day, User: "U"},
		{Removed: true, Title: "Art", URL: "http://a.simtest/1", Day: day.Add(1), User: "U"},
		{Title: "Art", URL: "http://b.simtest/2", Day: day.Add(1), User: "U"},
	}
	for i, w := range want {
		got := <-f.Events()
		if got != w {
			t.Errorf("event %d = %+v, want %+v", i, got, w)
		}
	}
	if f.Seen() != 3 || f.Dropped() != 0 {
		t.Errorf("seen=%d dropped=%d", f.Seen(), f.Dropped())
	}
}

func TestFeedDropsWhenFullWithoutBlocking(t *testing.T) {
	wiki := NewWiki()
	f := NewFeed(1)
	f.Attach(wiki)

	day := simclock.FromDate(2022, 4, 1)
	// Three additions into a 1-slot buffer with no consumer: the
	// first is buffered, the rest are dropped, and Create/Edit never
	// stall.
	wiki.Create("Art", day, "U",
		"[http://a.simtest/1 A] [http://b.simtest/2 B] [http://c.simtest/3 C]")
	if f.Seen() != 3 {
		t.Fatalf("seen = %d", f.Seen())
	}
	if f.Dropped() != 2 {
		t.Errorf("dropped = %d, want 2", f.Dropped())
	}
	got := <-f.Events()
	if got.URL != "http://a.simtest/1" {
		t.Errorf("buffered event = %+v", got)
	}
}
