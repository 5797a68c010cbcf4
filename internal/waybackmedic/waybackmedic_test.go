package waybackmedic

import (
	"strings"
	"testing"
	"time"

	"permadead/internal/archive"
	"permadead/internal/iabot"
	"permadead/internal/redircheck"
	"permadead/internal/simclock"
	"permadead/internal/wikimedia"
)

func d(y, m, dd int) simclock.Day { return simclock.FromDate(y, time.Month(m), dd) }

// deadArticle builds an article whose link IABot already marked dead.
func deadArticle(wiki *wikimedia.Wiki, title, url string) {
	wiki.Create(title, d(2010, 1, 1), "User", `<ref>{{cite web|url=`+url+`|title=T}}</ref>`)
	wiki.Edit(title, d(2018, 1, 1), iabot.DefaultName, "Tagging dead links. #IABot",
		`<ref>{{cite web|url=`+url+`|title=T|url-status=dead}} {{dead link|date=January 2018|bot=InternetArchiveBot}}</ref>
[[Category:`+iabot.Category+`]]`)
}

func TestMedicPatchesTimeoutMissedCopies(t *testing.T) {
	wiki := wikimedia.NewWiki()
	arch := archive.New()
	url := "http://slow.simtest/p.html"
	deadArticle(wiki, "Art", url)
	// The copy IABot missed due to its availability timeout (§4.1).
	arch.Add(archive.Snapshot{URL: url, Day: d(2011, 1, 1), InitialStatus: 200, FinalStatus: 200})
	arch.SetLookupLatency(url, 10*time.Second) // slow — but the medic doesn't time out

	m := New(wiki, arch)
	st := m.Run(d(2022, 5, 1))
	if st.Patched != 1 || st.Unfixable != 0 {
		t.Fatalf("stats = %+v", st)
	}
	cur := wiki.Article("Art").Current()
	if !strings.Contains(cur.Text, "archive-url=") {
		t.Errorf("text = %q", cur.Text)
	}
	if strings.Contains(strings.ToLower(cur.Text), "{{dead link") {
		t.Error("dead tag should be removed")
	}
	// All dead links fixed: article leaves the category.
	if got := wiki.InCategory(iabot.Category); len(got) != 0 {
		t.Errorf("category = %v", got)
	}
	if cur.User != DefaultName {
		t.Errorf("edit user = %q", cur.User)
	}
}

func TestMedicLeavesUnfixableAlone(t *testing.T) {
	wiki := wikimedia.NewWiki()
	arch := archive.New()
	deadArticle(wiki, "Art", "http://never-archived.simtest/p.html")

	m := New(wiki, arch)
	st := m.Run(d(2022, 5, 1))
	if st.Patched != 0 || st.Unfixable != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if got := wiki.InCategory(iabot.Category); len(got) != 1 {
		t.Errorf("article should stay categorized: %v", got)
	}
}

func TestMedicRedirectRescue(t *testing.T) {
	wiki := wikimedia.NewWiki()
	arch := archive.New()
	url := "http://ms.simtest/region/town/9204093.htm"
	deadArticle(wiki, "Art", url)
	// A 3xx capture with a unique target among siblings (§4.2).
	arch.Add(archive.Snapshot{
		URL: url, Day: d(2014, 1, 1), InitialStatus: 301, FinalStatus: 200,
		RedirectTo: "http://ms.simtest/lokales/town/index.htm",
	})
	arch.Add(archive.Snapshot{
		URL: "http://ms.simtest/region/town/111.htm", Day: d(2014, 2, 1),
		InitialStatus: 301, FinalStatus: 200,
		RedirectTo: "http://ms.simtest/lokales/town/other.htm",
	})
	arch.Freeze()

	// Without redirect rescue the link is unfixable.
	m1 := New(wiki, arch)
	if st := m1.Run(d(2022, 5, 1)); st.Unfixable != 1 {
		t.Fatalf("no-redirect stats = %+v", st)
	}
	// With it, the validated 3xx copy patches the link.
	m2 := New(wiki, arch)
	m2.AcceptRedirects = true
	m2.Checker = redircheck.NewChecker(arch)
	st := m2.Run(d(2022, 5, 1))
	if st.RedirectPatched != 1 || st.Unfixable != 0 {
		t.Fatalf("redirect stats = %+v", st)
	}
	if !strings.Contains(wiki.Article("Art").Current().Text, "web/20140101000000") {
		t.Errorf("text = %q", wiki.Article("Art").Current().Text)
	}
}

func TestMedicMassRedirectNotRescued(t *testing.T) {
	wiki := wikimedia.NewWiki()
	arch := archive.New()
	url := "http://news.simtest/old/a.html"
	deadArticle(wiki, "Art", url)
	// Mass redirect: every sibling redirects to the homepage.
	for _, p := range []string{"/old/a.html", "/old/b.html", "/old/c.html"} {
		arch.Add(archive.Snapshot{
			URL: "http://news.simtest" + p, Day: d(2014, 1, 1),
			InitialStatus: 302, FinalStatus: 200, RedirectTo: "http://news.simtest/",
		})
	}
	arch.Freeze()
	m := New(wiki, arch)
	m.AcceptRedirects = true
	m.Checker = redircheck.NewChecker(arch)
	st := m.Run(d(2022, 5, 1))
	if st.RedirectPatched != 0 || st.Unfixable != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMedicMixedArticle(t *testing.T) {
	wiki := wikimedia.NewWiki()
	arch := archive.New()
	fixable := "http://fix.simtest/p.html"
	hopeless := "http://hopeless.simtest/p.html"
	wiki.Create("Art", d(2010, 1, 1), "User",
		`<ref>[`+fixable+` F] {{dead link|date=January 2018|bot=InternetArchiveBot}}</ref>
<ref>[`+hopeless+` H] {{dead link|date=January 2018|bot=InternetArchiveBot}}</ref>
[[Category:`+iabot.Category+`]]`)
	arch.Add(archive.Snapshot{URL: fixable, Day: d(2012, 1, 1), InitialStatus: 200, FinalStatus: 200})

	m := New(wiki, arch)
	st := m.Run(d(2022, 5, 1))
	if st.Patched != 1 || st.Unfixable != 1 || st.DeadLinksSeen != 2 {
		t.Fatalf("stats = %+v", st)
	}
	// One dead link remains: category stays.
	if got := wiki.InCategory(iabot.Category); len(got) != 1 {
		t.Errorf("category = %v", got)
	}
	cur := wiki.Article("Art").Current().Text
	if !strings.Contains(cur, "{{Webarchive|url=") {
		t.Errorf("fixable link not patched: %q", cur)
	}
}

func TestMedicFutureCopiesInvisible(t *testing.T) {
	wiki := wikimedia.NewWiki()
	arch := archive.New()
	url := "http://x.simtest/p.html"
	deadArticle(wiki, "Art", url)
	arch.Add(archive.Snapshot{URL: url, Day: d(2023, 1, 1), InitialStatus: 200, FinalStatus: 200})

	m := New(wiki, arch)
	st := m.Run(d(2022, 5, 1)) // runs before the capture exists
	if st.Patched != 0 || st.Unfixable != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMedicSkipsUntaggedLinks(t *testing.T) {
	wiki := wikimedia.NewWiki()
	arch := archive.New()
	wiki.Create("Art", d(2010, 1, 1), "User",
		`<ref>[http://ok.simtest/p.html P]</ref> [[Category:`+iabot.Category+`]]`)
	m := New(wiki, arch)
	st := m.Run(d(2022, 5, 1))
	if st.DeadLinksSeen != 0 {
		t.Errorf("stats = %+v", st)
	}
}
