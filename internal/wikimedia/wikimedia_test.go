package wikimedia

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"permadead/internal/simclock"
)

func d(n int) simclock.Day { return simclock.Day(n) }

func TestCreateAndCurrent(t *testing.T) {
	w := NewWiki()
	a := w.Create("Alpha", d(100), "UserA", "Intro text. [http://x.simtest/1 One]")
	if a.Current() == nil || a.Current().User != "UserA" {
		t.Fatalf("current = %+v", a.Current())
	}
	if w.Len() != 1 {
		t.Errorf("len = %d", w.Len())
	}
	if w.Article("Alpha") != a {
		t.Error("Article lookup failed")
	}
	if w.Article("Missing") != nil {
		t.Error("missing article should be nil")
	}
}

func TestDuplicateCreatePanics(t *testing.T) {
	w := NewWiki()
	w.Create("Alpha", d(1), "U", "x")
	defer func() {
		if recover() == nil {
			t.Error("duplicate create should panic")
		}
	}()
	w.Create("Alpha", d(2), "U", "y")
}

func TestEditHistory(t *testing.T) {
	w := NewWiki()
	w.Create("Alpha", d(100), "UserA", "v1")
	rev, err := w.Edit("Alpha", d(200), "UserB", "update", "v2")
	if err != nil || rev.ID <= 1 {
		t.Fatalf("edit: %v, %+v", err, rev)
	}
	a := w.Article("Alpha")
	if len(a.Revisions) != 2 {
		t.Fatalf("revisions = %d", len(a.Revisions))
	}
	if a.Current().Text != "v2" {
		t.Errorf("current text = %q", a.Current().Text)
	}
	// Revisions are ordered and IDs increase.
	if a.Revisions[0].ID >= a.Revisions[1].ID {
		t.Error("revision IDs should increase")
	}
	if _, err := w.Edit("Missing", d(300), "U", "c", "x"); err == nil {
		t.Error("edit of missing article should fail")
	}
	if _, err := w.Edit("Alpha", d(150), "U", "backdated", "x"); err == nil {
		t.Error("backdated edit should fail")
	}
}

func TestTitlesSorted(t *testing.T) {
	w := NewWiki()
	for _, title := range []string{"Charlie", "Alpha", "Bravo"} {
		w.Create(title, d(1), "U", "x")
	}
	got := w.Titles()
	if len(got) != 3 || got[0] != "Alpha" || got[1] != "Bravo" || got[2] != "Charlie" {
		t.Errorf("titles = %v", got)
	}
}

func TestInCategory(t *testing.T) {
	w := NewWiki()
	w.Create("Tagged", d(1), "U", "text [[Category:Articles with permanently dead external links]]")
	w.Create("Untagged", d(1), "U", "text")
	w.Create("Later", d(1), "U", "text")
	w.Edit("Later", d(2), "Bot", "tag", "text [[Category:Articles with permanently dead external links]]")

	got := w.InCategory("Articles with permanently dead external links")
	if len(got) != 2 || got[0] != "Later" || got[1] != "Tagged" {
		t.Errorf("in category = %v", got)
	}
}

// storedIndex is an ArticleSource holding no articles, only a category
// index, so a test can make the index disagree with articles in memory.
type storedIndex []string

func (storedIndex) LoadArticle(string) *Article      { return nil }
func (storedIndex) Titles() []string                 { return nil }
func (storedIndex) NumArticles() int                 { return 0 }
func (s storedIndex) CategoryTitles(string) []string { return s }
func (storedIndex) MaxRevID() int                    { return 0 }

// TestInCategoryRechecksArticlesHeldAtSetSource: articles in the map
// when a source is attached are re-checked live, not read from the
// source's index, which may describe them wrongly.
func TestInCategoryRechecksArticlesHeldAtSetSource(t *testing.T) {
	const cat = "Articles with permanently dead external links"
	w := NewWiki()
	w.Create("Tagged", d(1), "U", "text [[Category:"+cat+"]]")
	w.Create("Untagged", d(1), "U", "text")
	w.SetSource(storedIndex{"Stored", "Untagged"})
	if got, want := w.InCategory(cat), []string{"Stored", "Tagged"}; !reflect.DeepEqual(got, want) {
		t.Errorf("InCategory = %v, want %v", got, want)
	}
}

// TestEditConcurrentWithReads: readers holding an article without the
// wiki's lock — Current, MineHistory, InCategory — run against a stream
// of edits (under -race this checks that Edit never writes a published
// Article), an *Article fetched before the edits keeps the history it
// had, MineHistory after each edit reflects that edit's revision even
// while readers' folds of older versions finish, and an edit publishes
// its version with no history folded.
func TestEditConcurrentWithReads(t *testing.T) {
	const title, edits = "Alpha", 200
	w := NewWiki()
	w.Create(title, d(1), "U", "[http://x.simtest/0 Zero]")
	held := w.Article(title)
	// minesRevision reports whether MineHistory reflects the revision
	// edit i saved.
	minesRevision := func(i int) bool {
		url := fmt.Sprintf("http://x.simtest/%d", i)
		ah := w.MineHistory(title)
		h, ok := ah.Link(url)
		return len(ah.Dead) == 1 && ah.Dead[0] == url && ok && h.MarkedDead == d(1+i)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 1; i <= edits; i++ {
			text := fmt.Sprintf("[http://x.simtest/%d Link]{{dead link|date=May 2020}}", i)
			if _, err := w.Edit(title, d(1+i), "U", "c", text); err != nil {
				t.Error(err)
				return
			}
			if !minesRevision(i) {
				t.Errorf("MineHistory after edit %d does not reflect its revision", i)
				return
			}
		}
	}()
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		a := w.Article(title)
		if cur := a.Current(); cur.ID != a.Revisions[len(a.Revisions)-1].ID || cur.Text == "" {
			t.Errorf("Current() = revision %d, history ends at %d", cur.ID, a.Revisions[len(a.Revisions)-1].ID)
			break
		}
		w.MineHistory(title)
		w.InCategory("Anything")
	}
	wg.Wait()

	if len(held.Revisions) != 1 || held.Current().Text != "[http://x.simtest/0 Zero]" {
		t.Errorf("article held across %d edits now has %d revisions, current %q", edits, len(held.Revisions), held.Current().Text)
	}
	if n := len(w.Article(title).Revisions); n != edits+1 {
		t.Errorf("refetched article has %d revisions, want %d", n, edits+1)
	}
	if !minesRevision(edits) {
		t.Errorf("MineHistory after the last edit does not reflect its revision")
	}
	if _, err := w.Edit(title, d(2+edits), "U", "c", "prose"); err != nil {
		t.Fatal(err)
	}
	if w.articles[title].hist.Load() != nil {
		t.Errorf("Edit published its version with a history already folded")
	}
}

// TestLinksConcurrentWithEdit: readers of every revision's
// RevisionLinks and of MineHistory run on two goroutines while a third
// edits the article (under -race this checks the summary cache's
// locking). Every summary a reader gets equals a fresh parse's, so the
// cache never hands out one revision's summary for another; afterwards
// MineHistory equals the uncached fold, and reading every summary again
// parses nothing.
func TestLinksConcurrentWithEdit(t *testing.T) {
	const title, edits = "Alpha", 200
	w := NewWiki()
	w.Subscribe(func(LinkEvent) {}) // edits read summaries too
	w.Create(title, d(1), "U", "[http://x.simtest/0 Zero]")

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 1; i <= edits; i++ {
			text := fmt.Sprintf("[http://x.simtest/%d Link]{{dead link|bot=B}} [[Category:C%d]]", i, i%3)
			if _, err := w.Edit(title, d(1+i), "U", "c", text); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	read := func() {
		defer wg.Done()
		for reading := true; reading; {
			select {
			case <-done:
				reading = false
			default:
			}
			a := w.Article(title)
			for i := range a.Revisions {
				rev := &a.Revisions[i]
				if got, want := w.Links(rev), summarize(rev.Text); !reflect.DeepEqual(got, want) {
					t.Errorf("Links(revision %d) = %+v, a fresh parse gives %+v", rev.ID, got, want)
					return
				}
			}
			w.MineHistory(title)
		}
	}
	wg.Add(2)
	go read()
	go read()
	wg.Wait()

	a := w.Article(title)
	if !reflect.DeepEqual(w.MineHistory(title), Mine(a)) {
		t.Errorf("MineHistory after the edits = %+v, the uncached fold gives %+v", w.MineHistory(title), Mine(a))
	}
	before := Parses()
	for i := range a.Revisions {
		w.Links(&a.Revisions[i])
	}
	if n := Parses() - before; n != 0 {
		t.Errorf("reading every revision's summary again parsed %d times, want 0", n)
	}
}

// TestLinksRereadsReusedID: a kept digest answers only for the text it
// digests, so a revision ID met again with other text (an article held
// before SetSource, beside a source's revision of the same ID) is read
// afresh, not answered with the other revision's links.
func TestLinksRereadsReusedID(t *testing.T) {
	w := NewWiki()
	a := w.Create("A", d(1), "U", "[http://a.simtest/1 One]")
	if got := w.Links(a.Current()).ExternalURLs(); !reflect.DeepEqual(got, []string{"http://a.simtest/1"}) {
		t.Fatalf("Links(A) = %v", got)
	}
	other := &Revision{ID: a.Current().ID, Text: "[http://b.simtest/2 Two] [[Category:B]]"}
	if got := w.Links(other); !reflect.DeepEqual(got, summarize(other.Text)) {
		t.Errorf("Links of another text under ID %d = %+v, want %+v", other.ID, got, summarize(other.Text))
	}
}

func TestLinkAddedEvents(t *testing.T) {
	w := NewWiki()
	var events []LinkEvent
	w.Subscribe(func(e LinkEvent) {
		if !e.Removed {
			events = append(events, e)
		}
	})

	w.Create("Alpha", d(100), "UserA", "[http://x.simtest/1 One]")
	if len(events) != 1 || events[0].URL != "http://x.simtest/1" || events[0].Day != d(100) {
		t.Fatalf("events = %+v", events)
	}
	// Editing without adding links emits nothing.
	w.Edit("Alpha", d(200), "UserB", "c", "[http://x.simtest/1 One] more prose")
	if len(events) != 1 {
		t.Fatalf("no-new-link edit emitted: %+v", events)
	}
	// Adding a second link emits one event.
	w.Edit("Alpha", d(300), "UserC", "c", "[http://x.simtest/1 One] [http://y.simtest/2 Two]")
	if len(events) != 2 || events[1].URL != "http://y.simtest/2" || events[1].User != "UserC" {
		t.Fatalf("events = %+v", events)
	}
}

func TestLinkRemovedEvents(t *testing.T) {
	w := NewWiki()
	var added, removed []LinkEvent
	w.Subscribe(func(e LinkEvent) {
		if e.Removed {
			removed = append(removed, e)
		} else {
			added = append(added, e)
		}
	})

	w.Create("Alpha", d(100), "UserA", "[http://x.simtest/1 One] [http://y.simtest/2 Two]")
	if len(removed) != 0 {
		t.Fatalf("creation emitted removals: %+v", removed)
	}
	// Dropping one link and adding another emits one removal (first)
	// and one addition, both stamped with the editing revision.
	w.Edit("Alpha", d(200), "UserB", "swap", "[http://x.simtest/1 One] [http://z.simtest/3 Three]")
	if len(removed) != 1 || removed[0].URL != "http://y.simtest/2" ||
		removed[0].Day != d(200) || removed[0].User != "UserB" || removed[0].Title != "Alpha" {
		t.Fatalf("removed = %+v", removed)
	}
	if len(added) != 3 || added[2].URL != "http://z.simtest/3" {
		t.Fatalf("added = %+v", added)
	}
	// A link cited twice and edited down to one occurrence is not
	// removed: the URL is still present in the revision.
	w.Edit("Alpha", d(300), "UserB", "dedupe", "[http://x.simtest/1 One]{{cite web|url=http://x.simtest/1|title=T}}")
	w.Edit("Alpha", d(400), "UserB", "trim", "[http://x.simtest/1 One]")
	if len(removed) != 2 || removed[1].URL != "http://z.simtest/3" {
		t.Fatalf("removed after dedupe/trim = %+v", removed)
	}
}

// TestSubscribeDuringEdits pins the post-generation Subscribe
// contract: listener registration must be safe while concurrent edits
// are emitting events (run under -race). Before listener lists became
// copy-on-write, Subscribe's in-place append could write into the
// same backing array an emitter was iterating.
func TestSubscribeDuringEdits(t *testing.T) {
	w := NewWiki()
	w.Create("Alpha", d(1), "U", "seed")

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			text := "[http://x.simtest/" + string(rune('a'+i%26)) + " L]"
			if _, err := w.Edit("Alpha", d(1+i), "U", "c", text); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 100; i++ {
		w.Subscribe(func(LinkEvent) {})
	}
	<-done
}

func TestHistoryOf(t *testing.T) {
	w := NewWiki()
	w.Create("Alpha", d(100), "Author", `Claim.<ref>{{cite web|url=http://x.simtest/1|title=T}}</ref>`)
	w.Edit("Alpha", d(500), "InternetArchiveBot", "tag dead",
		`Claim.<ref>{{cite web|url=http://x.simtest/1|title=T|url-status=dead}} {{dead link|date=X|bot=InternetArchiveBot}}</ref>`)

	h, ok := w.HistoryOf("Alpha", "http://x.simtest/1")
	if !ok {
		t.Fatal("history not found")
	}
	if h.Added != d(100) || h.AddedBy != "Author" {
		t.Errorf("added = %v by %q", h.Added, h.AddedBy)
	}
	if h.MarkedDead != d(500) || h.MarkedDeadBy != "InternetArchiveBot" {
		t.Errorf("marked = %v by %q", h.MarkedDead, h.MarkedDeadBy)
	}
	if h.DeadLinkBot != "InternetArchiveBot" {
		t.Errorf("bot = %q", h.DeadLinkBot)
	}
	if h.Patched {
		t.Error("not patched")
	}

	if _, ok := w.HistoryOf("Alpha", "http://never.simtest/"); ok {
		t.Error("unknown url should not have history")
	}
	if _, ok := w.HistoryOf("Missing", "http://x.simtest/1"); ok {
		t.Error("unknown article should not have history")
	}
}

func TestHistoryOfPatched(t *testing.T) {
	w := NewWiki()
	w.Create("Alpha", d(100), "Author", `<ref>{{cite web|url=http://x.simtest/1|title=T}}</ref>`)
	w.Edit("Alpha", d(600), "InternetArchiveBot", "rescue",
		`<ref>{{cite web|url=http://x.simtest/1|title=T|archive-url=https://web.archive.org/web/20150101000000/http://x.simtest/1|archive-date=2015-01-01|url-status=dead}}</ref>`)
	h, ok := w.HistoryOf("Alpha", "http://x.simtest/1")
	if !ok || !h.Patched {
		t.Fatalf("history = %+v, %v", h, ok)
	}
	if h.MarkedDead.Valid() {
		t.Error("patched link was never dead-tagged")
	}
}

func TestDeadLinks(t *testing.T) {
	w := NewWiki()
	w.Create("Alpha", d(100), "U",
		`<ref>[http://a.simtest/1 A] {{dead link|date=X|bot=InternetArchiveBot}}</ref>
<ref>[http://b.simtest/2 B]</ref>`)
	dead := w.DeadLinks("Alpha")
	if len(dead) != 1 || dead[0].URL != "http://a.simtest/1" {
		t.Errorf("dead = %+v", dead)
	}
	if w.DeadLinks("Missing") != nil {
		t.Error("missing article dead links should be nil")
	}
}

func TestEachArticle(t *testing.T) {
	w := NewWiki()
	w.Create("A", d(1), "U", "x")
	w.Create("B", d(1), "U", "y")
	n := 0
	w.EachArticle(func(*Article) { n++ })
	if n != 2 {
		t.Errorf("visited %d", n)
	}
}
