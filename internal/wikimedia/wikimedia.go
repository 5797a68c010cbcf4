// Package wikimedia simulates the parts of Wikipedia the study touches:
// an article store with full edit history, category membership derived
// from wikitext, an alphabetical article listing (the paper crawls the
// first 10,000 articles of a category listing in title order, §2.4),
// and the edit stream of external-link additions and removals. Listeners
// registered with Subscribe see each edit synchronously (generation's
// capture on post, §5.1, is one); Feed is the wiki's EventStream API,
// the bounded asynchronous queue the continuous verdict monitor reads.
//
// Every edit is a complete new revision, as in MediaWiki. The edit
// history is the source of truth for the three per-link facts the
// study extracts (§2.4): when a link was added, when it was marked
// permanently dead, and by which username. MineHistory extracts them
// for every URL of an article in one oldest-first pass; HistoryOf is a
// lookup into that pass, so the rules live in one place. The wiki keeps
// each article's pass until an edit replaces the article.
//
// Links keeps one RevisionLinks per revision read through it: the edit
// stream, category listings and the bots' decisions read each revision
// from it, so the wiki digests a revision for them once, with
// wikitext's digest scan. The history pass reads a kept digest where
// there is one and otherwise scans without keeping, since the wiki
// keeps its result. A writer decides on the digest and splices its
// edits into the text with Revision.Apply.
package wikimedia

import (
	"fmt"
	"maps"
	"slices"
	"sync"

	"permadead/internal/simclock"
	"permadead/internal/wikitext"
)

// Revision is one saved version of an article.
type Revision struct {
	// ID is unique per wiki and increases with time.
	ID int
	// Day the revision was saved.
	Day simclock.Day
	// User is the account that saved it; bots have accounts too.
	User string
	// Comment is the edit summary.
	Comment string
	// Text is the full wikitext of the article at this revision.
	Text string
}

// Apply returns the revision's wikitext with edits made
// (wikitext.Apply), their links indexed as Wiki.Links lists them, for
// the caller to save with Wiki.Edit. A reader that only looks goes
// through Wiki.Links.
func (r *Revision) Apply(edits []wikitext.Edit) string {
	parses.Add(1)
	return wikitext.Apply(r.Text, edits)
}

// Article is a titled page with its complete revision history, oldest
// first. A published *Article is immutable: Edit stores a new Article
// rather than appending in place, so a caller holding one reads a
// consistent history without the wiki's lock and sees later edits only
// by fetching the article again.
type Article struct {
	Title     string
	Revisions []Revision
}

// Current returns the latest revision (nil for an empty history, which
// cannot happen for articles created through Wiki).
func (a *Article) Current() *Revision {
	if len(a.Revisions) == 0 {
		return nil
	}
	return &a.Revisions[len(a.Revisions)-1]
}

// LinkEvent is one external-link membership change on the edit
// stream, stamped with the editing revision's day and user. An
// addition — an edit introducing a previously-unseen external URL to
// an article — is the signal the Wikipedia EventStream (and before it,
// the near-real-time IRC feed) exposes to archives. A removal — an
// edit dropping every occurrence of a URL — archives never needed (a
// capture is forever), but a live monitor does: a link edited out of
// its article no longer has a page whose citation health depends on
// it, so its watch can be released.
type LinkEvent struct {
	// Removed is false for an addition, true for a removal.
	Removed bool
	Title   string
	URL     string
	Day     simclock.Day
	User    string
}

// Wiki is the article store. Safe for concurrent use.
//
// A wiki may be backed by an ArticleSource (SetSource), in which case
// articles materialize lazily on first lookup — the serving shape the
// paged on-disk universe format uses. A source title's first load is
// published into the title's slot with one compare-and-swap, outside
// the wiki's lock, so a fan-out of first touches (Collect's) never
// waits on a write lock; created and edited articles go to the
// articles map under it and shadow the source.
type Wiki struct {
	mu sync.RWMutex
	// articles holds every article of an in-memory wiki; on a
	// source-backed one, only those created or edited through the wiki
	// (or held at SetSource): the articles whose category membership
	// the source's stored index may no longer describe.
	articles  map[string]*entry
	nextRevID int
	// listeners is copy-on-write: Subscribe replaces the slice under
	// the write lock instead of appending in place, so an emitter
	// iterating a previously captured slice never races a new
	// registration (Subscribe is safe mid-stream, while edits flow).
	listeners []func(LinkEvent)
	src       ArticleSource
	// titles are the source's titles, sorted, and slots[i] is the entry
	// of titles[i]'s first load.
	titles []string
	slots  []entry

	// links is Links's cache, one entry per revision ID, and
	// linksSlab holds the entries; both are under linksMu, so that
	// reading a digest never waits on an Edit.
	linksMu   sync.RWMutex
	links     map[int]*RevisionLinks
	linksSlab slab
}

// ArticleSource lazily supplies articles from external storage (a
// paged universe file). Implementations must be safe for concurrent
// use; LoadArticle returns a freshly built Article (nil for unknown
// titles) that the Wiki caches and owns from then on.
type ArticleSource interface {
	// LoadArticle materializes one article with its full revision
	// history, or nil when the title is not in the source.
	LoadArticle(title string) *Article
	// Titles returns every title in the source, sorted.
	Titles() []string
	// NumArticles returns the number of articles in the source.
	NumArticles() int
	// CategoryTitles returns the sorted titles whose current revision
	// (as of save time) belongs to the named category.
	CategoryTitles(category string) []string
	// MaxRevID is the highest revision ID in the source, so new edits
	// continue the ID sequence.
	MaxRevID() int
}

// NewWiki returns an empty wiki.
func NewWiki() *Wiki {
	return &Wiki{articles: make(map[string]*entry), nextRevID: 1}
}

// SetSource backs the wiki with a lazy article source. Call it once,
// before concurrent use; articles already in the map shadow the
// source (InCategory re-checks them live), and the revision-ID
// sequence continues from the source's maximum.
func (w *Wiki) SetSource(src ArticleSource) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.src = src
	w.titles = src.Titles()
	w.slots = make([]entry, len(w.titles))
	if id := src.MaxRevID() + 1; id > w.nextRevID {
		w.nextRevID = id
	}
}

// lookupLocked returns the article for title, faulting it in from the
// source if needed. Caller holds the lock.
func (w *Wiki) lookupLocked(title string) *Article {
	e, ok := w.articles[title]
	if !ok {
		e = w.sourced(title)
	}
	if e == nil {
		return nil
	}
	return e.art.Load()
}

// lookup returns the title's published entry, or nil.
func (w *Wiki) lookup(title string) *entry {
	w.mu.RLock()
	e, ok := w.articles[title]
	w.mu.RUnlock()
	if ok {
		return e
	}
	return w.sourced(title)
}

// sourced returns the slot of the source's title, or nil when the
// source lacks it. The first touch loads the article without a lock
// and publishes it into the slot with one compare-and-swap; a racing
// loser drops its copy for the winner's, so concurrent callers
// converge on one *Article per title.
func (w *Wiki) sourced(title string) *entry {
	i, ok := slices.BinarySearch(w.titles, title)
	if !ok {
		return nil
	}
	e := &w.slots[i]
	if e.art.Load() == nil {
		a := w.src.LoadArticle(title)
		if a == nil {
			return nil
		}
		e.art.CompareAndSwap(nil, a)
	}
	return e
}

// Subscribe registers a listener for link addition and removal events.
// Listeners are invoked synchronously during Create/Edit, in
// registration order. Safe to call at any time, including after content
// generation while concurrent edits are emitting: a registration only
// applies to edits that start after it.
func (w *Wiki) Subscribe(fn func(LinkEvent)) {
	w.mu.Lock()
	defer w.mu.Unlock()
	next := make([]func(LinkEvent), len(w.listeners), len(w.listeners)+1)
	copy(next, w.listeners)
	w.listeners = append(next, fn)
}

// Create makes a new article with an initial revision. It panics on a
// duplicate title (generator bugs should be loud).
func (w *Wiki) Create(title string, day simclock.Day, user, text string) *Article {
	w.mu.Lock()
	if w.lookupLocked(title) != nil {
		w.mu.Unlock()
		panic(fmt.Sprintf("wikimedia: duplicate article %q", title))
	}
	a := &Article{Title: title}
	a.Revisions = append(a.Revisions, Revision{
		ID: w.nextRevID, Day: day, User: user, Comment: "Created page", Text: text,
	})
	w.nextRevID++
	w.storeLocked(a)
	listeners := w.listeners
	w.mu.Unlock()

	w.emitLinkDiff(listeners, title, nil, a.Current())
	return a
}

// Edit appends a revision to an existing article and emits link-added
// events for URLs that were not present in the previous revision. It
// returns the new revision, or an error for unknown titles. The
// article is replaced, not mutated: readers of the previous *Article
// keep its history unchanged.
func (w *Wiki) Edit(title string, day simclock.Day, user, comment, text string) (*Revision, error) {
	w.mu.Lock()
	a := w.lookupLocked(title)
	if a == nil {
		w.mu.Unlock()
		return nil, fmt.Errorf("wikimedia: no article %q", title)
	}
	prev := a.Current()
	if day.Before(prev.Day) {
		w.mu.Unlock()
		return nil, fmt.Errorf("wikimedia: edit to %q on %v predates last revision (%v)", title, day, prev.Day)
	}
	n := len(a.Revisions)
	a = &Article{Title: title, Revisions: append(a.Revisions[:n:n], Revision{
		ID: w.nextRevID, Day: day, User: user, Comment: comment, Text: text,
	})}
	w.nextRevID++
	w.storeLocked(a)
	listeners := w.listeners
	w.mu.Unlock()

	w.emitLinkDiff(listeners, title, prev, a.Current())
	return a.Current(), nil
}

// storeLocked publishes a as its title's article, in a new entry whose
// history fold starts empty. Caller holds the write lock.
func (w *Wiki) storeLocked(a *Article) {
	w.articles[a.Title] = published(a)
}

// emitLinkDiff walks the external-URL sets of the previous revision
// (nil for a created article) and the new one once and emits one
// addition per URL newly present and one removal per URL no longer
// present. Removals fire before additions so a consumer tracking
// membership (the verdict monitor) never double-counts a URL mid-edit.
func (w *Wiki) emitLinkDiff(listeners []func(LinkEvent), title string, prevRev, rev *Revision) {
	if len(listeners) == 0 {
		return
	}
	emit := func(removed bool, u string) {
		ev := LinkEvent{Removed: removed, Title: title, URL: u, Day: rev.Day, User: rev.User}
		for _, fn := range listeners {
			fn(ev)
		}
	}
	var prevList []string
	if prevRev != nil {
		prevList = w.Links(prevRev).ExternalURLs()
	}
	prev := make(map[string]struct{}, len(prevList))
	for _, u := range prevList {
		prev[u] = struct{}{}
	}
	curList := w.Links(rev).ExternalURLs()
	cur := make(map[string]struct{}, len(curList))
	for _, u := range curList {
		cur[u] = struct{}{}
	}
	// The previous revision's parse-order list makes removal order
	// deterministic.
	for _, u := range prevList {
		if _, still := cur[u]; !still {
			emit(true, u)
		}
	}
	for _, u := range curList {
		if _, had := prev[u]; !had {
			emit(false, u)
		}
	}
}

// Article returns the article with the given title, or nil. On a
// source-backed wiki a miss faults the article in from the source; the
// loaded instance is kept, so concurrent callers converge on one
// *Article per title until the next edit replaces it.
func (w *Wiki) Article(title string) *Article {
	if e := w.lookup(title); e != nil {
		return e.art.Load()
	}
	return nil
}

// Len returns the number of articles (the source's count on a
// source-backed wiki).
func (w *Wiki) Len() int {
	w.mu.RLock()
	defer w.mu.RUnlock()
	if w.src != nil {
		return w.src.NumArticles()
	}
	return len(w.articles)
}

// Titles returns all article titles in lexicographic order — the order
// the category listing presents them and the order the paper's crawl
// consumed them.
func (w *Wiki) Titles() []string {
	w.mu.RLock()
	defer w.mu.RUnlock()
	if w.src != nil {
		return slices.Clone(w.titles)
	}
	ts := make([]string, 0, len(w.articles))
	for t := range w.articles {
		ts = append(ts, t)
	}
	slices.Sort(ts)
	return ts
}

// EachArticle calls fn for every article in unspecified order. On a
// source-backed wiki this materializes every article — it is the
// whole-universe escape hatch (re-saves, spot audits), not a serving
// path.
func (w *Wiki) EachArticle(fn func(*Article)) {
	w.mu.RLock()
	src := w.src
	w.mu.RUnlock()
	if src != nil {
		for _, t := range w.titles {
			if a := w.Article(t); a != nil {
				fn(a)
			}
		}
		return
	}
	w.mu.RLock()
	arts := make([]*Article, 0, len(w.articles))
	for _, e := range w.articles {
		arts = append(arts, e.art.Load())
	}
	w.mu.RUnlock()
	for _, a := range arts {
		fn(a)
	}
}

// InCategory returns the titles of articles whose *current* revision
// belongs to the named category, sorted lexicographically — mirroring
// https://en.wikipedia.org/wiki/Category:... listings.
//
// On a source-backed wiki the stored category index answers for every
// article nobody created or edited through the wiki, faulted in or
// not, and only the created or edited ones are re-checked live — so
// membership stays correct without parsing the working set.
func (w *Wiki) InCategory(category string) []string {
	w.mu.RLock()
	src := w.src
	var edited map[string]*Article
	if src != nil {
		edited = make(map[string]*Article, len(w.articles))
		for t, e := range w.articles {
			edited[t] = e.art.Load()
		}
	}
	w.mu.RUnlock()

	var titles []string
	if src != nil {
		for _, t := range src.CategoryTitles(category) {
			if _, ok := edited[t]; !ok {
				titles = append(titles, t)
			}
		}
		for _, a := range edited {
			if w.Links(a.Current()).HasCategory(category) {
				titles = append(titles, a.Title)
			}
		}
	} else {
		w.EachArticle(func(a *Article) {
			if w.Links(a.Current()).HasCategory(category) {
				titles = append(titles, a.Title)
			}
		})
	}
	slices.Sort(titles)
	return titles
}

// Clone deep-copies the wiki: articles, revisions, and the revision
// counter. It shares the source's RevisionLinks, which no one mutates,
// so the clone digests only the revisions edited into it; listeners
// and mined histories are not copied. Use it to run destructive
// experiments (e.g. a WaybackMedic pass) without disturbing the
// original. On a source-backed wiki every article is materialized
// first — the clone is fully in-memory.
func (w *Wiki) Clone() *Wiki {
	w.mu.RLock()
	src := w.src
	w.mu.RUnlock()
	if src != nil {
		w.EachArticle(func(*Article) {}) // fault everything in
	}
	w.mu.RLock()
	defer w.mu.RUnlock()
	out := &Wiki{
		articles:  make(map[string]*entry, len(w.titles)+len(w.articles)),
		nextRevID: w.nextRevID,
	}
	copyIn := func(a *Article) {
		na := &Article{Title: a.Title, Revisions: make([]Revision, len(a.Revisions))}
		copy(na.Revisions, a.Revisions)
		out.articles[a.Title] = published(na)
	}
	for i := range w.slots {
		if a := w.slots[i].art.Load(); a != nil {
			copyIn(a)
		}
	}
	for _, e := range w.articles { // shadowing the source's versions
		copyIn(e.art.Load())
	}
	// A kept digest names its revision's text, and keptLinks checks
	// it, so a revision ID the clone and the source later reuse for
	// different edits reads no stale digest.
	w.linksMu.RLock()
	out.links = maps.Clone(w.links)
	w.linksMu.RUnlock()
	return out
}
