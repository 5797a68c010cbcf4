package iabot

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"permadead/internal/archive"
	"permadead/internal/fetch"
	"permadead/internal/simclock"
	"permadead/internal/simweb"
	"permadead/internal/wikimedia"
)

// TestBotAgainstHTTPArchive runs the same scan against a local archive
// and against the archive served over its HTTP API; the bot's patch
// decision must agree.
func TestBotAgainstHTTPArchive(t *testing.T) {
	mk := func() (*simweb.World, *wikimedia.Wiki, *archive.Archive) {
		world := simweb.NewWorld()
		s := world.AddSite("dies.simtest", d(2008, 1, 1))
		pg := s.AddPage("/article.html", d(2008, 1, 1))
		pg.DeletedAt = d(2016, 1, 1)
		pg2 := s.AddPage("/hopeless.html", d(2008, 1, 1))
		pg2.DeletedAt = d(2016, 1, 1)

		wiki := wikimedia.NewWiki()
		wiki.Create("Art", d(2010, 5, 1),
			"User", `<ref>{{cite web|url=http://dies.simtest/article.html|title=A}}</ref>
<ref>{{cite web|url=http://dies.simtest/hopeless.html|title=B}}</ref>`)

		arch := archive.New()
		arch.Add(archive.Snapshot{
			URL: "http://dies.simtest/article.html", Day: d(2011, 1, 1),
			InitialStatus: 200, FinalStatus: 200,
		})
		return world, wiki, arch
	}

	run := func(source Availability) (string, Stats) {
		world, wiki, arch := mk()
		bot := New(wiki, arch, func(day simclock.Day) fetch.Fetcher {
			return fetch.New(simweb.NewTransport(world, day))
		})
		bot.Source = source
		if source == nil {
			// default local path
		}
		if _, err := bot.ScanArticle(context.Background(), "Art", d(2018, 1, 1)); err != nil {
			t.Fatal(err)
		}
		return wiki.Article("Art").Current().Text, bot.Stats()
	}

	// Local (default) run.
	localText, localStats := run(nil)

	// HTTP run: serve a fresh archive with the same contents.
	_, _, arch2 := mk()
	srv := httptest.NewServer(arch2.Handler())
	defer srv.Close()
	httpText, httpStats := run(HTTPAvailability{Client: archive.NewHTTPClient(srv.URL)})

	if localStats.Patched != 1 || localStats.MarkedDead != 1 {
		t.Fatalf("local stats = %+v", localStats)
	}
	if httpStats.Patched != localStats.Patched || httpStats.MarkedDead != localStats.MarkedDead {
		t.Errorf("HTTP stats diverge: %+v vs %+v", httpStats, localStats)
	}
	// Same citations end up patched/marked.
	for _, want := range []string{"archive-url=", "{{Dead link"} {
		if strings.Contains(localText, want) != strings.Contains(httpText, want) {
			t.Errorf("texts diverge on %q:\nlocal: %s\nhttp:  %s", want, localText, httpText)
		}
	}
}

func TestHTTPAvailabilityRejectsRedirectCopies(t *testing.T) {
	arch := archive.New()
	arch.Add(archive.Snapshot{
		URL: "http://m.simtest/old.html", Day: d(2014, 1, 1),
		InitialStatus: 301, FinalStatus: 200, RedirectTo: "http://m.simtest/new.html",
	})
	srv := httptest.NewServer(arch.Handler())
	defer srv.Close()

	src := HTTPAvailability{Client: archive.NewHTTPClient(srv.URL)}
	_, ok, err := src.QueryUsable("http://m.simtest/old.html", d(2014, 1, 1), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("redirect copy must be conservatively unusable (§4.2)")
	}
}

func TestHTTPAvailabilityTransportFailure(t *testing.T) {
	src := HTTPAvailability{Client: archive.NewHTTPClient("http://127.0.0.1:1")}
	_, ok, err := src.QueryUsable("http://x.simtest/", 0, 0, 500*time.Millisecond)
	if ok || err == nil {
		t.Errorf("dead archive: ok=%v err=%v", ok, err)
	}
}

func TestLocalAvailabilityHonoursAsOf(t *testing.T) {
	arch := archive.New()
	arch.Add(archive.Snapshot{
		URL: "http://a.simtest/p", Day: d(2020, 1, 1),
		InitialStatus: 200, FinalStatus: 200,
	})
	src := LocalAvailability{Arch: arch}
	if _, ok, _ := src.QueryUsable("http://a.simtest/p", d(2010, 1, 1), d(2018, 1, 1), 0); ok {
		t.Error("future copy leaked through asOf")
	}
	if _, ok, _ := src.QueryUsable("http://a.simtest/p", d(2010, 1, 1), d(2021, 1, 1), 0); !ok {
		t.Error("visible copy not found")
	}
}
