package iabot

import (
	"context"
	"strings"
	"testing"
	"time"

	"permadead/internal/archive"
	"permadead/internal/fetch"
	"permadead/internal/simclock"
	"permadead/internal/simweb"
	"permadead/internal/wikimedia"
)

// fixture wires a world, wiki, archive, and bot for scenario tests.
type fixture struct {
	world *simweb.World
	wiki  *wikimedia.Wiki
	arch  *archive.Archive
	bot   *Bot
}

func newFixture() *fixture {
	f := &fixture{
		world: simweb.NewWorld(),
		wiki:  wikimedia.NewWiki(),
		arch:  archive.New(),
	}
	f.bot = New(f.wiki, f.arch, func(day simclock.Day) fetch.Fetcher {
		return fetch.New(simweb.NewTransport(f.world, day))
	})
	return f
}

func d(y, m, dd int) simclock.Day { return simclock.FromDate(y, time.Month(m), dd) }

func TestHealthyLinkLeftAlone(t *testing.T) {
	f := newFixture()
	s := f.world.AddSite("ok.simtest", d(2008, 1, 1))
	s.AddPage("/p.html", d(2008, 1, 1))
	f.wiki.Create("Art", d(2010, 1, 1), "User", `<ref>[http://ok.simtest/p.html P]</ref>`)

	edited, err := f.bot.ScanArticle(context.Background(), "Art", d(2018, 1, 1))
	if err != nil || edited {
		t.Fatalf("edited=%v err=%v", edited, err)
	}
	st := f.bot.Stats()
	if st.LinksAlive != 1 || st.LinksBroken != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestBrokenLinkWithUsableCopyGetsPatched(t *testing.T) {
	f := newFixture()
	s := f.world.AddSite("dies.simtest", d(2008, 1, 1))
	pg := s.AddPage("/article.html", d(2008, 1, 1))
	pg.DeletedAt = d(2016, 1, 1)
	f.wiki.Create("Art", d(2010, 5, 1), "User", `<ref>{{cite web|url=http://dies.simtest/article.html|title=T}}</ref>`)
	// A 200-status capture from before the deletion.
	f.arch.Add(archive.Snapshot{
		URL: "http://dies.simtest/article.html", Day: d(2011, 1, 1),
		InitialStatus: 200, FinalStatus: 200,
	})

	edited, err := f.bot.ScanArticle(context.Background(), "Art", d(2018, 1, 1))
	if err != nil || !edited {
		t.Fatalf("edited=%v err=%v", edited, err)
	}
	st := f.bot.Stats()
	if st.Patched != 1 || st.MarkedDead != 0 {
		t.Errorf("stats = %+v", st)
	}
	cur := f.wiki.Article("Art").Current()
	if !strings.Contains(cur.Text, "archive-url=https://web.archive.org/web/2011") {
		t.Errorf("text = %q", cur.Text)
	}
	if cur.User != DefaultName {
		t.Errorf("edit user = %q", cur.User)
	}
	// Patched articles are NOT in the permanently-dead category.
	if got := f.wiki.InCategory(Category); len(got) != 0 {
		t.Errorf("category = %v", got)
	}
}

func TestBrokenLinkWithoutCopyMarkedDead(t *testing.T) {
	f := newFixture()
	s := f.world.AddSite("dies.simtest", d(2008, 1, 1))
	pg := s.AddPage("/article.html", d(2008, 1, 1))
	pg.DeletedAt = d(2016, 1, 1)
	f.wiki.Create("Art", d(2010, 5, 1), "User", `<ref>{{cite web|url=http://dies.simtest/article.html|title=T}}</ref>`)

	scanDay := d(2018, 3, 1)
	edited, err := f.bot.ScanArticle(context.Background(), "Art", scanDay)
	if err != nil || !edited {
		t.Fatalf("edited=%v err=%v", edited, err)
	}
	st := f.bot.Stats()
	if st.MarkedDead != 1 || st.Patched != 0 {
		t.Errorf("stats = %+v", st)
	}
	cur := f.wiki.Article("Art").Current()
	if !strings.Contains(cur.Text, "{{Dead link|date=March 2018|bot=InternetArchiveBot") {
		t.Errorf("text = %q", cur.Text)
	}
	if got := f.wiki.InCategory(Category); len(got) != 1 || got[0] != "Art" {
		t.Errorf("category = %v", got)
	}
	// Edit history attributes the marking correctly.
	h, ok := f.wiki.HistoryOf("Art", "http://dies.simtest/article.html")
	if !ok || h.MarkedDead != scanDay || h.MarkedDeadBy != DefaultName {
		t.Errorf("history = %+v", h)
	}
}

func TestRedirectCopiesIgnored(t *testing.T) {
	// §4.2: a 3xx capture exists, but IABot conservatively ignores it
	// and marks the link permanently dead.
	f := newFixture()
	s := f.world.AddSite("mv.simtest", d(2008, 1, 1))
	pg := s.AddPage("/old.html", d(2008, 1, 1))
	pg.MovedAt = d(2015, 1, 1) // no redirect ever installed
	f.wiki.Create("Art", d(2010, 5, 1), "User", `<ref>[http://mv.simtest/old.html O]</ref>`)
	f.arch.Add(archive.Snapshot{
		URL: "http://mv.simtest/old.html", Day: d(2014, 1, 1),
		InitialStatus: 301, FinalStatus: 200, RedirectTo: "http://mv.simtest/new.html",
	})

	if _, err := f.bot.ScanArticle(context.Background(), "Art", d(2018, 1, 1)); err != nil {
		t.Fatal(err)
	}
	st := f.bot.Stats()
	if st.MarkedDead != 1 || st.Patched != 0 {
		t.Errorf("stats = %+v (redirect copy must be ignored)", st)
	}
}

func TestAvailabilityTimeoutMissesCopy(t *testing.T) {
	// §4.1: a usable copy exists, but the lookup exceeds the bot's
	// timeout, so the link is marked permanently dead anyway.
	f := newFixture()
	s := f.world.AddSite("slow.simtest", d(2008, 1, 1))
	pg := s.AddPage("/p.html", d(2008, 1, 1))
	pg.DeletedAt = d(2016, 1, 1)
	url := "http://slow.simtest/p.html"
	f.wiki.Create("Art", d(2010, 5, 1), "User", `<ref>[`+url+` P]</ref>`)
	f.arch.Add(archive.Snapshot{URL: url, Day: d(2011, 1, 1), InitialStatus: 200, FinalStatus: 200})
	f.arch.SetLookupLatency(url, 10*time.Second)

	if _, err := f.bot.ScanArticle(context.Background(), "Art", d(2018, 1, 1)); err != nil {
		t.Fatal(err)
	}
	st := f.bot.Stats()
	if st.MarkedDead != 1 || st.AvailabilityTimeouts != 1 {
		t.Errorf("stats = %+v", st)
	}
	// With the timeout disabled the same bot patches it.
	f2 := newFixture()
	s2 := f2.world.AddSite("slow.simtest", d(2008, 1, 1))
	pg2 := s2.AddPage("/p.html", d(2008, 1, 1))
	pg2.DeletedAt = d(2016, 1, 1)
	f2.wiki.Create("Art", d(2010, 5, 1), "User", `<ref>[`+url+` P]</ref>`)
	f2.arch.Add(archive.Snapshot{URL: url, Day: d(2011, 1, 1), InitialStatus: 200, FinalStatus: 200})
	f2.arch.SetLookupLatency(url, 10*time.Second)
	f2.bot.AvailabilityTimeout = 0

	if _, err := f2.bot.ScanArticle(context.Background(), "Art", d(2018, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if st := f2.bot.Stats(); st.Patched != 1 {
		t.Errorf("untimed stats = %+v", st)
	}
}

func TestFutureCopiesInvisible(t *testing.T) {
	// A copy captured after the scan day must not be visible to the bot.
	f := newFixture()
	s := f.world.AddSite("x.simtest", d(2008, 1, 1))
	pg := s.AddPage("/p.html", d(2008, 1, 1))
	pg.DeletedAt = d(2016, 1, 1)
	url := "http://x.simtest/p.html"
	f.wiki.Create("Art", d(2010, 5, 1), "User", `<ref>[`+url+` P]</ref>`)
	f.arch.Add(archive.Snapshot{URL: url, Day: d(2020, 1, 1), InitialStatus: 200, FinalStatus: 200})

	if _, err := f.bot.ScanArticle(context.Background(), "Art", d(2018, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if st := f.bot.Stats(); st.MarkedDead != 1 || st.Patched != 0 {
		t.Errorf("stats = %+v (future copy leaked)", st)
	}
}

func TestDeadLinksExcludedFromRechecks(t *testing.T) {
	f := newFixture()
	s := f.world.AddSite("d.simtest", d(2008, 1, 1))
	pg := s.AddPage("/p.html", d(2008, 1, 1))
	pg.DeletedAt = d(2016, 1, 1)
	f.wiki.Create("Art", d(2010, 5, 1), "User", `<ref>[http://d.simtest/p.html P]</ref>`)

	ctx := context.Background()
	if _, err := f.bot.ScanArticle(ctx, "Art", d(2018, 1, 1)); err != nil {
		t.Fatal(err)
	}
	checkedAfterFirst := f.bot.Stats().LinksChecked
	// Second scan: the dead link is skipped, not re-fetched.
	if _, err := f.bot.ScanArticle(ctx, "Art", d(2019, 1, 1)); err != nil {
		t.Fatal(err)
	}
	st := f.bot.Stats()
	if st.LinksChecked != checkedAfterFirst {
		t.Errorf("dead link was re-checked: %+v", st)
	}
	if st.SkippedDead != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestRecheckDeadRecoversRevivedLink(t *testing.T) {
	// §3: the page moves, gets marked dead, then the site installs a
	// redirect. With RecheckDead, a later scan un-tags the link.
	f := newFixture()
	s := f.world.AddSite("rev.simtest", d(2008, 1, 1))
	pg := s.AddPage("/old.html", d(2008, 1, 1))
	pg.MovedAt = d(2016, 1, 1)
	pg.NewPath = "/new.html"
	pg.RedirectFrom = d(2020, 1, 1)
	s.AddPage("/new.html", d(2016, 1, 1))
	f.wiki.Create("Art", d(2010, 5, 1), "User", `<ref>[http://rev.simtest/old.html O]</ref>`)

	ctx := context.Background()
	if _, err := f.bot.ScanArticle(ctx, "Art", d(2018, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if st := f.bot.Stats(); st.MarkedDead != 1 {
		t.Fatalf("precondition: %+v", st)
	}
	// Without RecheckDead the link stays tagged forever.
	if _, err := f.bot.ScanArticle(ctx, "Art", d(2021, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if len(f.wiki.DeadLinks("Art")) != 1 {
		t.Fatal("link should still be tagged without RecheckDead")
	}
	// With it, the revived link is recovered.
	f.bot.RecheckDead = true
	if _, err := f.bot.ScanArticle(ctx, "Art", d(2021, 6, 1)); err != nil {
		t.Fatal(err)
	}
	if st := f.bot.Stats(); st.Recovered != 1 {
		t.Errorf("stats = %+v", st)
	}
	if len(f.wiki.DeadLinks("Art")) != 0 {
		t.Error("dead tag should be removed after recovery")
	}
}

func TestAlreadyArchivedLinksSkipped(t *testing.T) {
	f := newFixture()
	f.wiki.Create("Art", d(2010, 5, 1), "User",
		`<ref>{{cite web|url=http://gone.simtest/p|title=T|archive-url=https://web.archive.org/web/2011/http://gone.simtest/p|archive-date=2011}}</ref>`)
	if _, err := f.bot.ScanArticle(context.Background(), "Art", d(2018, 1, 1)); err != nil {
		t.Fatal(err)
	}
	st := f.bot.Stats()
	if st.SkippedArchived != 1 || st.LinksChecked != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestScanAllAndMultipleLinks(t *testing.T) {
	f := newFixture()
	ok := f.world.AddSite("ok.simtest", d(2008, 1, 1))
	ok.AddPage("/p.html", d(2008, 1, 1))
	gone := f.world.AddSite("gone.simtest", d(2008, 1, 1))
	gone.DNSDiesAt = d(2015, 1, 1)
	gone.AddPage("/x.html", d(2008, 1, 1))

	f.wiki.Create("A1", d(2010, 1, 1), "U",
		`<ref>[http://ok.simtest/p.html P]</ref> <ref>[http://gone.simtest/x.html X]</ref>`)
	f.wiki.Create("A2", d(2010, 1, 1), "U", `<ref>[http://gone.simtest/x.html X]</ref>`)

	for _, title := range f.wiki.Titles() {
		if _, err := f.bot.ScanArticle(context.Background(), title, d(2018, 1, 1)); err != nil {
			t.Fatal(err)
		}
	}
	st := f.bot.Stats()
	if st.ArticlesScanned != 2 || st.MarkedDead != 2 || st.LinksAlive != 1 {
		t.Errorf("stats = %+v", st)
	}
	if got := f.wiki.InCategory(Category); len(got) != 2 {
		t.Errorf("category = %v", got)
	}
}

func TestScanMissingArticle(t *testing.T) {
	f := newFixture()
	edited, err := f.bot.ScanArticle(context.Background(), "Nope", d(2018, 1, 1))
	if err != nil || edited {
		t.Errorf("missing article: %v, %v", edited, err)
	}
}

func TestScanLinkTouchesOnlyTargetURL(t *testing.T) {
	f := newFixture()
	s := f.world.AddSite("dies.simtest", d(2008, 1, 1))
	pg := s.AddPage("/a.html", d(2008, 1, 1))
	pg.DeletedAt = d(2016, 1, 1)
	pg2 := s.AddPage("/b.html", d(2008, 1, 1))
	pg2.DeletedAt = d(2016, 1, 1)
	f.wiki.Create("Art", d(2010, 5, 1), "User",
		`<ref>{{cite web|url=http://dies.simtest/a.html|title=A}}</ref><ref>{{cite web|url=http://dies.simtest/b.html|title=B}}</ref>`)

	// Scan only /a.html: /b.html is equally dead but must be left
	// untouched.
	edited, err := f.bot.ScanLink(context.Background(), "Art", "http://dies.simtest/a.html", d(2018, 1, 1))
	if err != nil || !edited {
		t.Fatalf("edited=%v err=%v", edited, err)
	}
	st := f.bot.Stats()
	if st.LinksChecked != 1 || st.MarkedDead != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.ArticlesScanned != 0 {
		t.Errorf("targeted scan counted as article scan: %+v", st)
	}
	cur := f.wiki.Article("Art").Current().Text
	if !strings.Contains(cur, "a.html|title=A}} {{dead link") &&
		!strings.Contains(cur, `a.html|title=A|url-status=dead`) {
		t.Errorf("a.html not marked: %q", cur)
	}
	if strings.Contains(cur[strings.Index(cur, "b.html"):], "dead link") {
		t.Errorf("b.html was touched: %q", cur)
	}

	// Scanning a URL the article does not cite edits nothing.
	edited, err = f.bot.ScanLink(context.Background(), "Art", "http://elsewhere.simtest/x", d(2018, 1, 2))
	if err != nil || edited {
		t.Fatalf("foreign url: edited=%v err=%v", edited, err)
	}
	// ScanLink on a missing article is a no-op.
	if edited, err := f.bot.ScanLink(context.Background(), "Missing", "http://dies.simtest/a.html", d(2018, 1, 2)); err != nil || edited {
		t.Fatalf("missing article: edited=%v err=%v", edited, err)
	}
}

func TestScanLinkPatchesWithUsableCopy(t *testing.T) {
	f := newFixture()
	s := f.world.AddSite("dies.simtest", d(2008, 1, 1))
	pg := s.AddPage("/a.html", d(2008, 1, 1))
	pg.DeletedAt = d(2016, 1, 1)
	f.wiki.Create("Art", d(2010, 5, 1), "User", `<ref>{{cite web|url=http://dies.simtest/a.html|title=A}}</ref>`)
	f.arch.Add(archive.Snapshot{
		URL: "http://dies.simtest/a.html", Day: d(2011, 1, 1),
		InitialStatus: 200, FinalStatus: 200,
	})

	edited, err := f.bot.ScanLink(context.Background(), "Art", "http://dies.simtest/a.html", d(2018, 1, 1))
	if err != nil || !edited {
		t.Fatalf("edited=%v err=%v", edited, err)
	}
	if st := f.bot.Stats(); st.Patched != 1 || st.MarkedDead != 0 {
		t.Errorf("stats = %+v", st)
	}
	if cur := f.wiki.Article("Art").Current().Text; !strings.Contains(cur, "archive-url=https://web.archive.org/web/2011") {
		t.Errorf("text = %q", cur)
	}
}

// TestClientBuiltOnlyWhenALinkNeedsAGET: a scan asks NewClient for a
// client on the first link it has to fetch, once per scan, and not at
// all for an article whose links are all already dead-tagged or
// already archived (half the timeline's link visits).
func TestClientBuiltOnlyWhenALinkNeedsAGET(t *testing.T) {
	f := newFixture()
	built := 0
	inner := f.bot.NewClient
	f.bot.NewClient = func(day simclock.Day) fetch.Fetcher { built++; return inner(day) }
	s := f.world.AddSite("ok.simtest", d(2008, 1, 1))
	s.AddPage("/a.html", d(2008, 1, 1))
	s.AddPage("/b.html", d(2008, 1, 1))

	f.wiki.Create("Skips", d(2010, 5, 1), "User",
		`<ref>[http://gone.simtest/x X]{{dead link|date=May 2015|bot=InternetArchiveBot}}</ref>`+
			`<ref>{{cite web|url=http://gone.simtest/p|title=T|archive-url=https://web.archive.org/web/2011/http://gone.simtest/p|archive-date=2011}}</ref>`)
	if _, err := f.bot.ScanArticle(context.Background(), "Skips", d(2018, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if st := f.bot.Stats(); built != 0 || st.SkippedDead != 1 || st.SkippedArchived != 1 {
		t.Fatalf("all-skip article: %d clients built, stats %+v", built, st)
	}

	f.wiki.Create("Two", d(2010, 5, 1), "User",
		`<ref>[http://ok.simtest/a.html A]</ref><ref>[http://ok.simtest/b.html B]</ref>`)
	if _, err := f.bot.ScanArticle(context.Background(), "Two", d(2018, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if st := f.bot.Stats(); built != 1 || st.LinksAlive != 2 {
		t.Fatalf("two-link article: %d clients built (want 1), stats %+v", built, st)
	}
}

// TestScanEditsSeveralLinksOfOneContainer: when one scan edits several
// links that share a container (the body, or one <ref>), every tag and
// archive link lands right after its own link, as the in-place scan
// placed them, and the Stats match. Applied front to back, each insert
// would shift the links after it and misplace their edits; generated
// articles rarely put two broken links in one container, so the
// timeline differential does not reach this.
func TestScanEditsSeveralLinksOfOneContainer(t *testing.T) {
	const text = "See http://gone.simtest/a and [http://gone.simtest/b B], " +
		"{{cite web|url=http://gone.simtest/c|title=C}} and http://ok.simtest/d.\n" +
		"<ref>http://gone.simtest/e [http://gone.simtest/f F]</ref>"
	scan := func(inPlace bool) (string, Stats) {
		f := newFixture()
		gone := f.world.AddSite("gone.simtest", d(2008, 1, 1))
		for _, p := range []string{"/a", "/b", "/c", "/e", "/f"} {
			gone.AddPage(p, d(2008, 1, 1)).DeletedAt = d(2016, 1, 1)
		}
		f.world.AddSite("ok.simtest", d(2008, 1, 1)).AddPage("/d", d(2008, 1, 1))
		for _, u := range []string{"http://gone.simtest/b", "http://gone.simtest/e"} {
			f.arch.Add(archive.Snapshot{URL: u, Day: d(2011, 1, 1), InitialStatus: 200, FinalStatus: 200})
		}
		f.wiki.Create("Art", d(2010, 5, 1), "User", text)
		day := d(2018, 3, 1)
		var err error
		if inPlace {
			_, err = f.bot.ScanInPlace(context.Background(), "Art", "", day)
		} else {
			_, err = f.bot.ScanArticle(context.Background(), "Art", day)
		}
		if err != nil {
			t.Fatal(err)
		}
		return f.wiki.Article("Art").Current().Text, f.bot.Stats()
	}
	got, gotStats := scan(false)
	want, wantStats := scan(true)
	if wantStats.Patched != 2 || wantStats.MarkedDead != 3 {
		t.Fatalf("the in-place scan patched %d and marked %d links, want 2 and 3", wantStats.Patched, wantStats.MarkedDead)
	}
	if got != want || gotStats != wantStats {
		t.Errorf("scan rendered\n%s\n%+v\nthe in-place scan rendered\n%s\n%+v", got, gotStats, want, wantStats)
	}
}
