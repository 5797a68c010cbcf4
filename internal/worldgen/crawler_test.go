package worldgen

import (
	"strings"
	"testing"

	"permadead/internal/archive"
	"permadead/internal/simclock"
	"permadead/internal/simweb"
)

func d(n int) simclock.Day { return simclock.Day(n) }

func TestCrawlerCapturesLivePage(t *testing.T) {
	w := simweb.NewWorld()
	s := w.AddSite("h.simtest", d(0))
	s.AddPage("/p.html", d(0))
	a := archive.New()
	c := NewCrawler(w, a)

	got, err := c.Capture("http://h.simtest/p.html", d(100))
	if err != nil {
		t.Fatal(err)
	}
	if got.InitialStatus != 200 || got.FinalStatus != 200 {
		t.Errorf("capture = %+v", got)
	}
	if got.Body == "" || got.Digest == 0 {
		t.Error("body/digest not recorded")
	}
	if len(a.Snapshots("http://h.simtest/p.html")) != 1 {
		t.Error("snapshot not stored")
	}
}

func TestCrawlerCapturesBrokenPage(t *testing.T) {
	w := simweb.NewWorld()
	w.AddSite("h.simtest", d(0))
	a := archive.New()
	c := NewCrawler(w, a)
	got, err := c.Capture("http://h.simtest/missing.html", d(100))
	if err != nil {
		t.Fatal(err)
	}
	if got.InitialStatus != 404 {
		t.Errorf("capture of missing page = %+v", got)
	}
}

func TestCrawlerCapturesRedirect(t *testing.T) {
	w := simweb.NewWorld()
	s := w.AddSite("h.simtest", d(0))
	pg := s.AddPage("/old.html", d(0))
	pg.MovedAt = d(10)
	pg.NewPath = "/new.html"
	pg.RedirectFrom = d(10)
	s.AddPage("/new.html", d(10))
	a := archive.New()
	c := NewCrawler(w, a)

	got, err := c.Capture("http://h.simtest/old.html", d(100))
	if err != nil {
		t.Fatal(err)
	}
	if got.InitialStatus != 301 || got.FinalStatus != 200 {
		t.Errorf("redirect capture = %+v", got)
	}
	if !got.IsRedirect() {
		t.Error("IsRedirect should be true")
	}
	if !strings.HasSuffix(got.RedirectTo, "/new.html") {
		t.Errorf("redirect target = %q", got.RedirectTo)
	}
}

func TestCrawlerUnreachable(t *testing.T) {
	w := simweb.NewWorld()
	dead := w.AddSite("dead.simtest", d(0))
	dead.DNSDiesAt = d(50)
	a := archive.New()
	c := NewCrawler(w, a)
	if _, err := c.Capture("http://dead.simtest/x", d(100)); err != ErrUnreachable {
		t.Errorf("err = %v, want ErrUnreachable", err)
	}
	a.Freeze()
	if a.TotalSnapshots() != 0 {
		t.Error("unreachable capture must not store a snapshot")
	}
}
