package wikimedia_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"permadead/internal/core"
	"permadead/internal/iabot"
	"permadead/internal/persist"
	"permadead/internal/simclock"
	"permadead/internal/urlutil"
	"permadead/internal/wikimedia"
	"permadead/internal/wikitext"
	"permadead/internal/worldgen"
)

// perURLWalk is the per-URL history walk MineHistory replaced: one
// pass over every revision for one URL, re-reading each, first match
// per revision deciding. It is kept, test-only, as the statement of the
// §2.4 rules the one-pass fold is held to.
func perURLWalk(w *wikimedia.Wiki, title, url string) (wikimedia.LinkHistory, bool) {
	a := w.Article(title)
	if a == nil {
		return wikimedia.LinkHistory{}, false
	}
	h := wikimedia.LinkHistory{
		Title:      title,
		URL:        url,
		Added:      simclock.Never,
		MarkedDead: simclock.Never,
	}
	for i := range a.Revisions {
		rev := &a.Revisions[i]
		link, ok := firstLink(rev.Text, url)
		if !ok {
			continue
		}
		if !h.Added.Valid() {
			h.Added = rev.Day
			h.AddedBy = rev.User
		}
		if !h.MarkedDead.Valid() && link.Dead {
			h.MarkedDead = rev.Day
			h.MarkedDeadBy = rev.User
			h.DeadLinkBot = link.DeadLinkBot
		}
	}
	if !h.Added.Valid() {
		return wikimedia.LinkHistory{}, false
	}
	if cur, ok := firstLink(a.Current().Text, url); ok {
		h.ArchiveURL = cur.ArchiveURL
		h.Patched = h.ArchiveURL != ""
	}
	return h, true
}

// firstLink returns the first of text's cited links citing url, read
// by a digest scan of its own.
func firstLink(text, url string) (wikitext.CitedURL, bool) {
	for _, cl := range wikitext.AppendCited(nil, text) {
		if cl.URL == url {
			return cl, true
		}
	}
	return wikitext.CitedURL{}, false
}

// smallUniverse is the generated universe both golden tests read.
var smallUniverse = sync.OnceValue(func() *worldgen.Universe {
	return worldgen.Generate(worldgen.DefaultParams().Scale(0.05))
})

// checkArticle holds HistoryOf, MineHistory and DeadLinks to the
// per-URL walk for every given URL of one article.
func checkArticle(t *testing.T, w *wikimedia.Wiki, title string, urls []string) {
	t.Helper()
	mined := w.MineHistory(title)
	for _, u := range urls {
		want, wantOK := perURLWalk(w, title, u)
		if got, ok := w.HistoryOf(title, u); ok != wantOK || got != want {
			t.Fatalf("HistoryOf(%q, %q) = %+v, %v; per-URL walk gives %+v, %v\nrevisions:\n%s",
				title, u, got, ok, want, wantOK, revisionsOf(w, title))
		}
		if got, ok := mined.Link(u); ok != wantOK || got != want {
			t.Fatalf("MineHistory(%q).Link(%q) = %+v, %v; per-URL walk gives %+v, %v",
				title, u, got, ok, want, wantOK)
		}
	}
	dead := w.DeadLinks(title)
	if len(mined.Dead) != len(dead) {
		t.Fatalf("MineHistory(%q).Dead has %d links, DeadLinks %d", title, len(mined.Dead), len(dead))
	}
	for i := range dead {
		if mined.Dead[i] != dead[i].URL {
			t.Fatalf("MineHistory(%q).Dead[%d] = %q, DeadLinks gives %q", title, i, mined.Dead[i], dead[i].URL)
		}
	}
}

func revisionsOf(w *wikimedia.Wiki, title string) string {
	var b strings.Builder
	for _, r := range w.Article(title).Revisions {
		fmt.Fprintf(&b, "  day %d by %s: %q\n", r.Day, r.User, r.Text)
	}
	return b.String()
}

// citation renders one citation of url in a random style, tagged and
// patched at random, so that random revisions cover: the same URL cited
// twice with only one occurrence tagged, tags by the bot, by another
// bot and by hand, archive-url and {{webarchive}} patches, citations in
// and out of <ref>, and an empty url= parameter.
func citation(rng *rand.Rand, url string) string {
	archive := "https://web.archive.org/web/2015/" + url
	var s string
	switch rng.Intn(4) {
	case 0:
		s = "[" + url + " label]"
		if url == "" {
			s = "{{cite web|url=|title=lost}}"
		}
	case 1:
		s = "{{cite web|url=" + url + "|title=T}}"
	case 2:
		s = "{{cite news|url=" + url + "|archive-url=" + archive + "}}"
	default:
		s = url
		if url == "" {
			s = "{{citation|url= }}"
		}
	}
	switch rng.Intn(6) {
	case 0:
		s += " {{dead link|date=May 2020|bot=InternetArchiveBot}}"
	case 1:
		s += " {{Dead link|date=May 2020}}"
	case 2:
		s += "{{dead link|bot=OtherBot}}"
	case 3:
		s += " {{webarchive|url=" + archive + "}}"
	}
	if rng.Intn(2) == 0 {
		s = "<ref>" + s + "</ref>"
	}
	return s
}

func TestHistoryOfMatchesPerURLWalk(t *testing.T) {
	pool := []string{
		"http://a.simtest/1", "http://a.simtest/2", "https://b.simtest/x?q=1",
		"http://c.simtest/dir/page.html", "",
	}
	probe := append([]string{"http://never.simtest/cited"}, pool...)
	users := []string{"Alice", "Bob", iabot.DefaultName}

	t.Run("random histories", func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		w := wikimedia.NewWiki()
		for n := 0; n < 300; n++ {
			title := fmt.Sprintf("Article %d", n)
			day := simclock.Day(rng.Intn(50))
			for rev := 0; rev < 1+rng.Intn(7); rev++ {
				// Up to six citations over a pool of five URLs: repeats
				// within a revision and removal/re-adding across
				// revisions are both common.
				parts := []string{"Prose about the subject."}
				for c := rng.Intn(7); c > 0; c-- {
					parts = append(parts, citation(rng, pool[rng.Intn(len(pool))]))
				}
				text := strings.Join(parts, "\n")
				user := users[rng.Intn(len(users))]
				if rev == 0 {
					w.Create(title, day, user, text)
				} else if _, err := w.Edit(title, day, user, "edit", text); err != nil {
					t.Fatal(err)
				}
				checkArticle(t, w, title, probe)
				day = day.Add(rng.Intn(40))
			}
		}
		checkArticle(t, w, "No such article", probe)
	})

	t.Run("second occurrence tagged", func(t *testing.T) {
		w := wikimedia.NewWiki()
		w.Create("A", 10, "Alice", "[http://a.simtest/1 one] and <ref>[http://a.simtest/1 again] {{dead link|bot=InternetArchiveBot}}</ref>")
		checkArticle(t, w, "A", probe)
		if h, ok := w.HistoryOf("A", "http://a.simtest/1"); !ok || h.MarkedDead.Valid() {
			t.Errorf("only the first occurrence of a URL in a revision may tag it: %+v, %v", h, ok)
		}
		if dead := w.MineHistory("A").Dead; len(dead) != 1 {
			t.Errorf("Dead lists every tagged occurrence, first or not: got %d", len(dead))
		}
	})

	t.Run("generated universe", func(t *testing.T) {
		if testing.Short() {
			t.Skip("generates a universe")
		}
		u := smallUniverse()
		u.Wiki.EachArticle(func(a *wikimedia.Article) {
			seen := map[string]bool{}
			urls := []string{"http://never.simtest/cited"}
			for i := range a.Revisions {
				for _, cl := range wikitext.AppendCited(nil, a.Revisions[i].Text) {
					if !seen[cl.URL] {
						seen[cl.URL] = true
						urls = append(urls, cl.URL)
					}
				}
			}
			checkArticle(t, u.Wiki, a.Title, urls)
		})
	})
}

// TestCollectMatchesPerURLWalk is the Collect golden: the §2.4 dataset
// of a generated universe, in candidate order, equals the one built
// from DeadLinks and the per-URL walk the way Collect used to.
func TestCollectMatchesPerURLWalk(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a universe")
	}
	u := smallUniverse()

	var want []core.LinkRecord
	seen := make(map[string]struct{})
	for _, title := range u.Wiki.InCategory(iabot.Category) {
		for _, cl := range u.Wiki.DeadLinks(title) {
			if cl.URL == "" {
				continue
			}
			if _, dup := seen[cl.URL]; dup {
				continue
			}
			h, ok := perURLWalk(u.Wiki, title, cl.URL)
			if !ok || !h.MarkedDead.Valid() {
				continue
			}
			seen[cl.URL] = struct{}{}
			if h.MarkedDeadBy != iabot.DefaultName {
				continue
			}
			want = append(want, core.LinkRecord{
				URL: cl.URL, Article: title,
				Host: urlutil.Hostname(cl.URL), Domain: urlutil.Domain(cl.URL),
				Added: h.Added, AddedBy: h.AddedBy,
				Marked: h.MarkedDead, MarkedBy: h.MarkedDeadBy,
			})
		}
	}

	cfg := core.DefaultConfig()
	cfg.SampleSize, cfg.CrawlArticles = 0, 0 // every candidate, in candidate order
	got := (&core.Study{Config: cfg, Wiki: u.Wiki}).Collect()
	if len(got) == 0 || len(got) != len(want) {
		t.Fatalf("Collect gave %d records, the per-URL walk %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %+v, the per-URL walk gives %+v", i, got[i], want[i])
		}
	}
}

// TestMineHistoryMemo: on a paged bundle, MineHistory (first call and
// repeat) equals the uncached fold for every category article, a
// repeat on an unedited article allocates nothing, and after an Edit
// or a Create the memo answers with the new version's fold.
func TestMineHistoryMemo(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a universe")
	}
	var buf bytes.Buffer
	if err := persist.SavePaged(&buf, persist.FromUniverse(smallUniverse())); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "u.pd4")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := persist.OpenPaged(path)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	w := b.Wiki

	check := func(title string) wikimedia.ArticleHistory {
		t.Helper()
		want := wikimedia.Mine(w.Article(title))
		for call := 1; call <= 2; call++ {
			if got := w.MineHistory(title); !reflect.DeepEqual(got, want) {
				t.Fatalf("MineHistory(%q), call %d = %+v; the uncached fold gives %+v", title, call, got, want)
			}
		}
		return want
	}
	titles := w.InCategory(iabot.Category)
	if len(titles) < 3 {
		t.Fatalf("%d category articles, want at least 3", len(titles))
	}
	for _, title := range titles {
		check(title)
	}
	if n := testing.AllocsPerRun(100, func() { w.MineHistory(titles[0]) }); n != 0 {
		t.Errorf("repeat MineHistory on an unedited article: %v allocs, want 0", n)
	}

	for i, title := range titles[:3] {
		cur := w.Article(title).Current()
		url := fmt.Sprintf("http://memo.simtest/%d", i)
		day := cur.Day.Add(1)
		text := cur.Text + "\n<ref>[" + url + " New]{{dead link|date=May 2020|bot=" + iabot.DefaultName + "}}</ref>"
		if _, err := w.Edit(title, day, iabot.DefaultName, "edit", text); err != nil {
			t.Fatal(err)
		}
		if h, ok := check(title).Link(url); !ok || h.MarkedDead != day {
			t.Errorf("after Edit, MineHistory(%q).Link(%q) = %+v, %v; want marked on %v", title, url, h, ok, day)
		}
	}
	w.Create("Memo created", 1, "U", "[http://memo.simtest/created Created]")
	if _, ok := check("Memo created").Link("http://memo.simtest/created"); !ok {
		t.Error("after Create, MineHistory misses the created article's link")
	}
}

// openSmallPaged saves smallUniverse as a paged bundle and opens a
// fresh wiki over it, with nothing faulted in.
func openSmallPaged(t *testing.T) *wikimedia.Wiki {
	t.Helper()
	var buf bytes.Buffer
	if err := persist.SavePaged(&buf, persist.FromUniverse(smallUniverse())); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "u.pd4")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := persist.OpenPaged(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return b.Wiki
}

// TestMineHistoryConcurrentFirstTouch: on a freshly opened paged wiki,
// 32 goroutines call Article and MineHistory for every category title
// at once, in one order, so their first touches collide, while another
// goroutine edits every tenth title. Every caller gets the one *Article
// of an unedited title and a fold equal to the uncached one; of an
// edited title, one of its two versions and that version's fold. After
// the edits, MineHistory shows each.
func TestMineHistoryConcurrentFirstTouch(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a universe")
	}
	const callers = 32
	w := openSmallPaged(t)
	titles := w.InCategory(iabot.Category)
	if len(titles) < 20 {
		t.Fatalf("%d category articles, want at least 20", len(titles))
	}
	editURL := func(i int) string { return fmt.Sprintf("http://firsttouch.simtest/%d", i) }

	arts := make([][]*wikimedia.Article, callers)
	hists := make([][]wikimedia.ArticleHistory, callers)
	begin := make(chan struct{})
	var wg sync.WaitGroup
	for g := range arts {
		arts[g] = make([]*wikimedia.Article, len(titles))
		hists[g] = make([]wikimedia.ArticleHistory, len(titles))
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-begin
			for i, title := range titles {
				arts[g][i] = w.Article(title)
				hists[g][i] = w.MineHistory(title)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-begin
		for i := 0; i < len(titles); i += 10 {
			cur := w.Article(titles[i]).Current()
			text := cur.Text + "\n<ref>[" + editURL(i) + " New]{{dead link|date=May 2020}}</ref>"
			if _, err := w.Edit(titles[i], cur.Day.Add(1), "U", "edit", text); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	close(begin)
	wg.Wait()

	for i, title := range titles {
		edited := i%10 == 0
		now := w.Article(title)
		var old *wikimedia.Article // an edited title's first version
		for g := range arts {
			switch a := arts[g][i]; {
			case a == now:
			case edited && old == nil && len(a.Revisions) == len(now.Revisions)-1:
				old = a
			case a == nil || a != old:
				t.Fatalf("caller %d: Article(%q) is neither of the title's versions", g, title)
			}
		}
		folds := []wikimedia.ArticleHistory{wikimedia.Mine(now)}
		if old != nil {
			folds = append(folds, wikimedia.Mine(old))
		}
		for g := range hists {
			if !slices.ContainsFunc(folds, func(f wikimedia.ArticleHistory) bool { return reflect.DeepEqual(f, hists[g][i]) }) {
				t.Fatalf("caller %d: MineHistory(%q) equals the uncached fold of no version", g, title)
			}
		}
		if h, ok := w.MineHistory(title).Link(editURL(i)); edited && (!ok || h.MarkedDead != now.Current().Day) {
			t.Errorf("after the edits, MineHistory(%q).Link(%q) = %+v, %v; want marked on %v", title, editURL(i), h, ok, now.Current().Day)
		}
	}
}
