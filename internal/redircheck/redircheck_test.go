package redircheck

import (
	"testing"

	"permadead/internal/archive"
	"permadead/internal/simclock"
)

func d(n int) simclock.Day { return simclock.Day(n) }

func redirectSnap(url string, day int, target string) archive.Snapshot {
	return archive.Snapshot{
		URL: url, Day: d(day), InitialStatus: 301, FinalStatus: 200, RedirectTo: target,
	}
}

func okSnap(url string, day int) archive.Snapshot {
	return archive.Snapshot{URL: url, Day: d(day), InitialStatus: 200, FinalStatus: 200}
}

// massRedirectArchive models a site that redirected every retired URL
// to its homepage — the erroneous case IABot is right to distrust.
func massRedirectArchive() *archive.Archive {
	a := archive.New()
	home := "http://news.simtest/"
	for i, p := range []string{"/old/a.html", "/old/b.html", "/old/c.html", "/old/d.html"} {
		a.Add(redirectSnap("http://news.simtest"+p, 1000+i*10, home))
	}
	a.Freeze()
	return a
}

// uniqueRedirectArchive models per-page moves: every old URL redirects
// to its own new home (§4.2's main-spitze.de example).
func uniqueRedirectArchive() *archive.Archive {
	a := archive.New()
	a.Add(redirectSnap("http://ms.simtest/region/floersheim/9204093.htm", 1000,
		"http://ms.simtest/lokales/floersheim/index.htm"))
	a.Add(redirectSnap("http://ms.simtest/region/floersheim/8888888.htm", 1010,
		"http://ms.simtest/lokales/floersheim/other.htm"))
	a.Add(redirectSnap("http://ms.simtest/region/floersheim/7777777.htm", 1020,
		"http://ms.simtest/lokales/hochheim/index.htm"))
	a.Freeze()
	return a
}

func TestMassRedirectJudgedErroneous(t *testing.T) {
	a := massRedirectArchive()
	c := NewChecker(a)
	url := "http://news.simtest/old/a.html"
	snap := a.Snapshots(url)[0]
	v := c.Check(url, snap)
	if v.NonErroneous {
		t.Errorf("mass redirect judged usable: %+v", v)
	}
	if v.SharedWith == 0 {
		t.Errorf("expected shared targets: %+v", v)
	}
}

func TestUniqueRedirectJudgedUsable(t *testing.T) {
	a := uniqueRedirectArchive()
	c := NewChecker(a)
	url := "http://ms.simtest/region/floersheim/9204093.htm"
	snap := a.Snapshots(url)[0]
	v := c.Check(url, snap)
	if !v.NonErroneous {
		t.Errorf("unique redirect judged erroneous: %+v", v)
	}
	if v.SiblingsCompared != 2 {
		t.Errorf("siblings compared = %d, want 2", v.SiblingsCompared)
	}
}

func TestNoSiblingsIsConservativelyErroneous(t *testing.T) {
	a := archive.New()
	url := "http://lonely.simtest/dir/page.html"
	a.Add(redirectSnap(url, 1000, "http://lonely.simtest/new/page.html"))
	a.Freeze()
	c := NewChecker(a)
	v := c.Check(url, a.Snapshots(url)[0])
	if v.NonErroneous {
		t.Errorf("redirect with no siblings should not validate: %+v", v)
	}
	if v.SiblingsCompared != 0 {
		t.Errorf("siblings = %d", v.SiblingsCompared)
	}
}

func TestWindowExcludesDistantSiblings(t *testing.T) {
	a := archive.New()
	url := "http://w.simtest/dir/a.html"
	a.Add(redirectSnap(url, 1000, "http://w.simtest/"))
	// Sibling redirected to the same place, but two years earlier —
	// outside the ±90-day window, so it cannot condemn (or validate).
	a.Add(redirectSnap("http://w.simtest/dir/b.html", 270, "http://w.simtest/"))
	a.Freeze()
	c := NewChecker(a)
	v := c.Check(url, a.Snapshots(url)[0])
	if v.SiblingsCompared != 0 {
		t.Errorf("distant sibling should be outside window: %+v", v)
	}
	if v.NonErroneous {
		t.Error("no in-window siblings: conservative verdict expected")
	}
}

func TestMaxSiblingsBound(t *testing.T) {
	a := archive.New()
	url := "http://m.simtest/dir/target.html"
	a.Add(redirectSnap(url, 1000, "http://m.simtest/unique-target.html"))
	// 20 siblings, all with distinct targets.
	for i := 0; i < 20; i++ {
		a.Add(redirectSnap(
			"http://m.simtest/dir/sib"+string(rune('a'+i))+".html",
			1000+i,
			"http://m.simtest/new/"+string(rune('a'+i))+".html"))
	}
	a.Freeze()
	c := NewChecker(a)
	v := c.Check(url, a.Snapshots(url)[0])
	if v.SiblingsCompared != 6 {
		t.Errorf("siblings compared = %d, want 6 (the paper's bound)", v.SiblingsCompared)
	}
	if !v.NonErroneous {
		t.Errorf("unique among 6: %+v", v)
	}
}

func TestNonRedirectSnapshotRejected(t *testing.T) {
	a := archive.New()
	url := "http://x.simtest/dir/p.html"
	a.Add(okSnap(url, 1000))
	c := NewChecker(a)
	v := c.Check(url, a.Snapshots(url)[0])
	if v.NonErroneous || v.SiblingsCompared != 0 {
		t.Errorf("200 snapshot should short-circuit: %+v", v)
	}
}

func TestSiblingsWithOnlyOKSnapshotsIgnored(t *testing.T) {
	a := archive.New()
	url := "http://y.simtest/dir/gone.html"
	a.Add(redirectSnap(url, 1000, "http://y.simtest/moved/gone.html"))
	// Siblings exist but never redirected: they can't confirm
	// uniqueness under the paper's method (they had *no* redirection,
	// which is different from a different redirection)... the paper
	// compares "the target of the redirection to those seen for up to
	// 6 other URLs" — only URLs with redirections participate.
	a.Add(okSnap("http://y.simtest/dir/alive1.html", 1000))
	a.Add(okSnap("http://y.simtest/dir/alive2.html", 1001))
	a.Freeze()
	c := NewChecker(a)
	v := c.Check(url, a.Snapshots(url)[0])
	if v.SiblingsCompared != 0 {
		t.Errorf("OK-only siblings should not count: %+v", v)
	}
}

func TestFindValidatedCopy(t *testing.T) {
	a := uniqueRedirectArchive()
	c := NewChecker(a)
	url := "http://ms.simtest/region/floersheim/9204093.htm"

	snap, v, ok := c.FindValidatedCopy(url, 0)
	if !ok || !v.NonErroneous {
		t.Fatalf("copy = %+v, %+v, %v", snap, v, ok)
	}
	if snap.Day != d(1000) {
		t.Errorf("copy day = %v", snap.Day)
	}
	// A before-bound earlier than the capture hides it.
	if _, _, ok := c.FindValidatedCopy(url, d(999)); ok {
		t.Error("before-bound should hide the capture")
	}
	// Unknown URL.
	if _, _, ok := c.FindValidatedCopy("http://none.simtest/x", 0); ok {
		t.Error("unknown URL should find nothing")
	}
}

func TestCheckerDefaults(t *testing.T) {
	c := NewChecker(archive.New())
	if c.WindowDays != 90 || c.MaxSiblings != 6 {
		t.Errorf("defaults = %+v", c)
	}
	// Zero-value fields fall back to the paper's constants.
	c2 := &Checker{Archive: massRedirectArchive()}
	url := "http://news.simtest/old/a.html"
	v := c2.Check(url, c2.Archive.Snapshots(url)[0])
	if v.NonErroneous {
		t.Error("zero-value checker should still work conservatively")
	}
}
