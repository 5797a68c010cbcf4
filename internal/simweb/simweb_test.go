package simweb

import (
	"strings"
	"testing"
	"time"

	"permadead/internal/simclock"
)

func day(y int, m time.Month, d int) simclock.Day {
	return simclock.FromDate(y, m, d)
}

// buildWorld creates a small world exercising every lifecycle state.
func buildWorld() *World {
	w := NewWorld()

	// Healthy site with one article page.
	healthy := w.AddSite("news.example.simnews", day(2008, 1, 1))
	healthy.AddPage("/articles/alpha.html", day(2009, 5, 1))

	// Site whose DNS lapses in 2020.
	dead := w.AddSite("gone.example.simnews", day(2008, 1, 1))
	dead.DNSDiesAt = day(2020, 6, 1)
	dead.AddPage("/page.html", day(2009, 1, 1))

	// Site whose server hangs from 2021.
	hang := w.AddSite("hang.example.simnews", day(2010, 1, 1))
	hang.TimeoutFrom = day(2021, 1, 1)

	// Parked domain from 2019.
	parked := w.AddSite("parked.example.simnews", day(2008, 1, 1))
	parked.ParkedAt = day(2019, 3, 1)
	parked.AddPage("/old/content.html", day(2009, 1, 1))

	// Page that moves in 2018; redirect installed in 2021.
	mv := w.AddSite("moved.example.simnews", day(2008, 1, 1))
	pg := mv.AddPage("/artists/steve.html", day(2010, 1, 1))
	pg.MovedAt = day(2018, 4, 1)
	pg.NewPath = "/portfolio/steve/"
	pg.RedirectFrom = day(2021, 2, 1)
	mv.AddPage("/portfolio/steve/", day(2018, 4, 1))

	// Soft-404 site: missing pages redirect home.
	soft := w.AddSite("soft.example.simnews", day(2008, 1, 1))
	soft.ErrorStyle = SoftRedirectHome
	del := soft.AddPage("/story/123.html", day(2010, 1, 1))
	del.DeletedAt = day(2015, 1, 1)

	// Soft200 site: missing pages answer 200 boilerplate.
	s200 := w.AddSite("soft200.example.simnews", day(2008, 1, 1))
	s200.ErrorStyle = Soft200

	// Login-redirect site.
	login := w.AddSite("login.example.simnews", day(2008, 1, 1))
	login.ErrorStyle = LoginRedirect

	// Geo-blocked site.
	geo := w.AddSite("geo.example.simnews", day(2008, 1, 1))
	geo.GeoBlockedFrom = day(2016, 1, 1)

	// Site with a 503 outage window around the study date.
	out := w.AddSite("outage.example.simnews", day(2008, 1, 1))
	out.OutageFrom = day(2022, 3, 1)
	out.OutageTo = day(2022, 4, 1)

	return w
}

func TestHealthyPage(t *testing.T) {
	w := buildWorld()
	res := w.Get("http://news.example.simnews/articles/alpha.html", simclock.StudyTime)
	if res.Kind != KindResponse || res.Status != 200 {
		t.Fatalf("healthy page: %+v", res)
	}
	if !strings.Contains(res.Body, "<html>") {
		t.Error("body should be HTML")
	}
	// Deterministic body.
	res2 := w.Get("http://news.example.simnews/articles/alpha.html", simclock.StudyTime)
	if res.Body != res2.Body {
		t.Error("bodies differ across identical requests")
	}
	// Different URLs get different bodies.
	home := w.Get("http://news.example.simnews/", simclock.StudyTime)
	if home.Body == res.Body {
		t.Error("different pages share a body")
	}
}

func TestPageBeforeCreation(t *testing.T) {
	w := buildWorld()
	res := w.Get("http://news.example.simnews/articles/alpha.html", day(2009, 4, 30))
	if res.Status != 404 {
		t.Errorf("page before creation: got %d, want 404", res.Status)
	}
}

func TestDNSLifecycle(t *testing.T) {
	w := buildWorld()
	// Before site creation: no DNS.
	if res := w.Get("http://gone.example.simnews/page.html", day(2007, 1, 1)); res.Kind != KindDNSFailure {
		t.Errorf("pre-creation: %+v", res)
	}
	// While alive: 200.
	if res := w.Get("http://gone.example.simnews/page.html", day(2015, 1, 1)); res.Status != 200 {
		t.Errorf("alive: %+v", res)
	}
	// After DNS death: failure.
	if res := w.Get("http://gone.example.simnews/page.html", simclock.StudyTime); res.Kind != KindDNSFailure {
		t.Errorf("post-death: %+v", res)
	}
	// Unknown host: failure.
	if res := w.Get("http://nonexistent.simnews/", simclock.StudyTime); res.Kind != KindDNSFailure {
		t.Errorf("unknown host: %+v", res)
	}
}

func TestTimeout(t *testing.T) {
	w := buildWorld()
	if res := w.Get("http://hang.example.simnews/", day(2020, 1, 1)); res.Kind != KindResponse {
		t.Errorf("before hang: %+v", res)
	}
	if res := w.Get("http://hang.example.simnews/", simclock.StudyTime); res.Kind != KindTimeout {
		t.Errorf("after hang: %+v", res)
	}
}

func TestParkedDomain(t *testing.T) {
	w := buildWorld()
	before := w.Get("http://parked.example.simnews/old/content.html", day(2015, 1, 1))
	if before.Status != 200 || strings.Contains(before.Body, "for sale") {
		t.Errorf("before parking: %+v", before)
	}
	after := w.Get("http://parked.example.simnews/old/content.html", simclock.StudyTime)
	if after.Status != 200 || !strings.Contains(after.Body, "for sale") {
		t.Errorf("after parking: %+v", after)
	}
	// All paths serve the identical parked page.
	other := w.Get("http://parked.example.simnews/anything/else", simclock.StudyTime)
	if other.Body != after.Body {
		t.Error("parked pages should be identical across paths")
	}
}

func TestMovedPageLifecycle(t *testing.T) {
	w := buildWorld()
	url := "http://moved.example.simnews/artists/steve.html"
	// Working at the original URL before the move.
	if res := w.Get(url, day(2015, 1, 1)); res.Status != 200 {
		t.Errorf("before move: %+v", res)
	}
	// Broken (404) between move and redirect installation — the state
	// in which IABot marks the link permanently dead.
	if res := w.Get(url, day(2019, 1, 1)); res.Status != 404 {
		t.Errorf("after move, before redirect: %+v", res)
	}
	// Redirecting once the site installs the mapping (§3's fishman.com
	// example).
	res := w.Get(url, simclock.StudyTime)
	if res.Status != 301 || res.Location != "/portfolio/steve/" {
		t.Errorf("after redirect installed: %+v", res)
	}
	// And the new URL works.
	if res := w.Get("http://moved.example.simnews/portfolio/steve/", simclock.StudyTime); res.Status != 200 {
		t.Errorf("new URL: %+v", res)
	}
}

func TestSoftRedirectHome(t *testing.T) {
	w := buildWorld()
	// Deleted page redirects to the homepage.
	res := w.Get("http://soft.example.simnews/story/123.html", simclock.StudyTime)
	if res.Status != 302 || res.Location != "/" {
		t.Errorf("deleted page on soft site: %+v", res)
	}
	// Before deletion it worked.
	if res := w.Get("http://soft.example.simnews/story/123.html", day(2014, 1, 1)); res.Status != 200 {
		t.Errorf("before deletion: %+v", res)
	}
	// Missing pages share the same redirect target.
	res2 := w.Get("http://soft.example.simnews/story/999.html", simclock.StudyTime)
	if res2.Status != 302 || res2.Location != res.Location {
		t.Errorf("missing page: %+v", res2)
	}
}

func TestSoft200(t *testing.T) {
	w := buildWorld()
	a := w.Get("http://soft200.example.simnews/missing/a.html", simclock.StudyTime)
	b := w.Get("http://soft200.example.simnews/missing/b.html", simclock.StudyTime)
	if a.Status != 200 || b.Status != 200 {
		t.Fatalf("soft200 statuses: %d, %d", a.Status, b.Status)
	}
	if a.Body != b.Body {
		t.Error("soft200 bodies should be identical across missing paths")
	}
}

func TestLoginRedirect(t *testing.T) {
	w := buildWorld()
	res := w.Get("http://login.example.simnews/private/doc.html", simclock.StudyTime)
	if res.Status != 302 || res.Location != "/login" {
		t.Errorf("login redirect: %+v", res)
	}
	login := w.Get("http://login.example.simnews/login", simclock.StudyTime)
	if login.Status != 200 || !strings.Contains(login.Body, "password") {
		t.Errorf("login page: %+v", login)
	}
}

func TestGeoBlockAndOutage(t *testing.T) {
	w := buildWorld()
	if res := w.Get("http://geo.example.simnews/", simclock.StudyTime); res.Status != 403 {
		t.Errorf("geo-blocked: %+v", res)
	}
	if res := w.Get("http://outage.example.simnews/", day(2022, 3, 15)); res.Status != 503 {
		t.Errorf("during outage: %+v", res)
	}
	if res := w.Get("http://outage.example.simnews/", day(2022, 5, 1)); res.Status != 200 {
		t.Errorf("after outage: %+v", res)
	}
}

func TestQueryStringsAreDistinctPages(t *testing.T) {
	w := NewWorld()
	s := w.AddSite("q.example.simnews", day(2008, 1, 1))
	s.AddPage("/article.asp?id=1", day(2010, 1, 1))
	if res := w.Get("http://q.example.simnews/article.asp?id=1", simclock.StudyTime); res.Status != 200 {
		t.Errorf("existing query page: %+v", res)
	}
	if res := w.Get("http://q.example.simnews/article.asp?id=2", simclock.StudyTime); res.Status != 404 {
		t.Errorf("other query value should 404: %+v", res)
	}
	if res := w.Get("http://q.example.simnews/article.asp", simclock.StudyTime); res.Status != 404 {
		t.Errorf("query-less URL should 404: %+v", res)
	}
}

func TestDuplicateSitePanics(t *testing.T) {
	w := NewWorld()
	w.AddSite("dup.example.simnews", 0)
	defer func() {
		if recover() == nil {
			t.Error("duplicate AddSite should panic")
		}
	}()
	w.AddSite("dup.example.simnews", 0)
}

func TestResolveLocation(t *testing.T) {
	cases := []struct{ scheme, host, loc, want string }{
		{"http", "h.com", "/x", "http://h.com/x"},
		{"https", "h.com", "/x", "https://h.com/x"},
		{"http", "h.com", "http://other.com/y", "http://other.com/y"},
		{"http", "h.com", "x", "http://h.com/x"},
	}
	for _, c := range cases {
		if got := ResolveLocation(c.scheme, c.host, c.loc); got != c.want {
			t.Errorf("ResolveLocation(%q,%q,%q) = %q, want %q", c.scheme, c.host, c.loc, got, c.want)
		}
	}
}

func TestWorldAccessors(t *testing.T) {
	w := buildWorld()
	if w.Sites() != 10 {
		t.Errorf("Sites = %d", w.Sites())
	}
	hs := w.Hostnames()
	if len(hs) != 10 {
		t.Errorf("Hostnames = %d", len(hs))
	}
	for i := 1; i < len(hs); i++ {
		if hs[i-1] >= hs[i] {
			t.Error("Hostnames not sorted")
		}
	}
	site, page := w.PageByURL("http://news.example.simnews/articles/alpha.html")
	if site == nil || page == nil {
		t.Fatal("PageByURL failed")
	}
	if page.Path != "/articles/alpha.html" {
		t.Errorf("page path = %q", page.Path)
	}
	if n := len(w.Hostnames()); n != 10 {
		t.Errorf("Hostnames listed %d", n)
	}
}

func TestSitePageHelpers(t *testing.T) {
	s := NewSite("x.simtest", 0)
	pages := 0
	s.EachPage(func(*Page) { pages++ })
	if pages != 1 { // implicit homepage
		t.Errorf("new site pages = %d", pages)
	}
	s.AddPage("no-slash", 5)
	if s.Page("/no-slash") == nil {
		t.Error("AddPage should normalize missing leading slash")
	}
	count := 0
	s.EachPage(func(*Page) { count++ })
	if count != 2 {
		t.Errorf("EachPage visited %d", count)
	}
}

func TestRestoredPage(t *testing.T) {
	w := NewWorld()
	s := w.AddSite("restore.simtest", day(2008, 1, 1))
	pg := s.AddPage("/p.html", day(2008, 1, 1))
	pg.DeletedAt = day(2015, 1, 1)
	pg.RestoredAt = day(2020, 1, 1)
	url := "http://restore.simtest/p.html"

	if res := w.Get(url, day(2014, 1, 1)); res.Status != 200 {
		t.Errorf("before deletion: %+v", res)
	}
	if res := w.Get(url, day(2017, 1, 1)); res.Status != 404 {
		t.Errorf("while deleted: %+v", res)
	}
	// §3: a "permanently dead" link that works again, without any
	// redirect involved.
	if res := w.Get(url, simclock.StudyTime); res.Status != 200 {
		t.Errorf("after restore: %+v", res)
	}
}

func TestRedirectWindow(t *testing.T) {
	w := NewWorld()
	s := w.AddSite("window.simtest", day(2008, 1, 1))
	pg := s.AddPage("/old.html", day(2008, 1, 1))
	pg.MovedAt = day(2012, 1, 1)
	pg.NewPath = "/new.html"
	pg.RedirectFrom = day(2012, 1, 1)
	pg.RedirectUntil = day(2016, 1, 1)
	s.AddPage("/new.html", day(2012, 1, 1))
	url := "http://window.simtest/old.html"

	if res := w.Get(url, day(2011, 1, 1)); res.Status != 200 {
		t.Errorf("before move: %+v", res)
	}
	// During the window: the valid redirection an archive capture
	// would record (§4.2).
	if res := w.Get(url, day(2014, 1, 1)); res.Status != 301 || res.Location != "/new.html" {
		t.Errorf("during window: %+v", res)
	}
	// After the window: hard-broken, the state IABot observes.
	if res := w.Get(url, simclock.StudyTime); res.Status != 404 {
		t.Errorf("after window: %+v", res)
	}
}

func TestErrorStyleSwitch(t *testing.T) {
	w := NewWorld()
	s := w.AddSite("switch.simtest", day(2008, 1, 1))
	s.ErrorStyle = SoftRedirectHome
	s.ErrorStyleSwitchAt = day(2016, 1, 1)
	s.ErrorStyleAfter = Hard404
	pg := s.AddPage("/story.html", day(2008, 1, 1))
	pg.DeletedAt = day(2013, 1, 1)
	url := "http://switch.simtest/story.html"

	// Soft era: deleted pages redirect home (what the archive captures).
	if res := w.Get(url, day(2014, 1, 1)); res.Status != 302 || res.Location != "/" {
		t.Errorf("soft era: %+v", res)
	}
	// Hard era: plain 404 (what IABot later observes).
	if res := w.Get(url, simclock.StudyTime); res.Status != 404 {
		t.Errorf("hard era: %+v", res)
	}
}
