package wikimedia

import (
	"slices"
	"sync/atomic"

	"permadead/internal/simclock"
)

// LinkHistory is what the study mines from an article's edit history
// for one external URL (§2.4): when the link was added, when it was
// tagged {{dead link}}, and by whom.
type LinkHistory struct {
	Title string
	URL   string
	// Added is the day of the first revision containing the URL.
	Added simclock.Day
	// AddedBy is the user who saved that revision.
	AddedBy string
	// MarkedDead is the day of the first revision in which the URL
	// carries a {{dead link}} tag (simclock.Never when never tagged).
	MarkedDead simclock.Day
	// MarkedDeadBy is the user who saved the tagging revision.
	MarkedDeadBy string
	// DeadLinkBot is the bot= parameter of the {{dead link}} template
	// in the tagging revision ("" for manual tags).
	DeadLinkBot string
	// Patched reports whether the current revision carries an archived
	// copy for the URL.
	Patched bool
	// ArchiveURL is the attached archive link in the current revision.
	ArchiveURL string
}

// ArticleHistory is one article's edit history mined for every URL it
// ever cited: the §2.4 facts per URL, plus the current revision's
// dead-tagged URLs. MineHistory keeps it on the wiki for as long as
// the article version it was folded from is the published one, so its
// slices are shared: a caller reads them and never writes them.
type ArticleHistory struct {
	// Dead lists the URL of every cited link of the current revision
	// carrying a {{dead link}} tag, in AppendCited order (the URLs of
	// what DeadLinks returns).
	Dead []string

	links []LinkHistory // one per URL, in first-citation order
}

// Link returns the LinkHistory of url, with ok=false when the article
// never contained it.
func (ah ArticleHistory) Link(url string) (LinkHistory, bool) {
	i := find(ah.links, url)
	if i < 0 || !ah.links[i].Added.Valid() {
		return LinkHistory{}, false
	}
	return ah.links[i], true
}

// find returns url's position in links, or -1. An article cites a few
// URLs (at most 7 at Scale(0.1)), so a scan beats a map.
func find(links []LinkHistory, url string) int {
	for i := range links {
		if links[i].URL == url {
			return i
		}
	}
	return -1
}

// entry is one published article version and, once MineHistory has
// folded it, its history. Each is set once; Edit publishes a new entry,
// so a fold lives exactly as long as its version is the published one.
type entry struct {
	art  atomic.Pointer[Article]
	hist atomic.Pointer[ArticleHistory]
}

// published returns a's entry, with no history folded.
func published(a *Article) *entry {
	e := new(entry)
	e.art.Store(a)
	return e
}

// MineHistory returns the titled article's ArticleHistory (mine's
// fold), folding each published version of an article once: the
// result is kept until Create or Edit replaces the article. An unknown
// title yields an empty history.
func (w *Wiki) MineHistory(title string) ArticleHistory {
	e := w.lookup(title)
	if e == nil {
		return ArticleHistory{}
	}
	if h := e.hist.Load(); h != nil {
		return *h
	}
	// Fold without a lock. Racing folds of one version are equal and
	// either may stay; one finishing after an Edit replaced its version
	// is kept on an entry no lookup reaches any more.
	ah := mine(e.art.Load(), w)
	e.hist.CompareAndSwap(nil, &ah)
	return ah
}

// mine walks a's revisions oldest-first, reading each one's cited
// links through w.citedLinks (nil w: scanning every revision), and
// folds the LinkHistory of every URL cited along the way. Within one
// revision only a URL's first occurrence (in AppendCited order) counts:
// a second citation of the same URL neither tags it nor supplies its
// archive link.
func mine(a *Article, w *Wiki) ArticleHistory {
	// The fold runs in stack buffers sized for the few URLs an article
	// cites; the kept history is copied out at its final size.
	var linkBuf [8]LinkHistory
	var deadBuf [8]string
	// foldedIn[i] is the last revision that folded links[i], so a
	// repeat occurrence within one revision is recognised without a
	// per-revision set.
	var foldedBuf [8]int
	var citedBuf [8]CitedURL
	links, dead, foldedIn := linkBuf[:0], deadBuf[:0], foldedBuf[:0]
	current := len(a.Revisions) - 1
	for r := range a.Revisions {
		rev := &a.Revisions[r]
		for _, cl := range w.citedLinks(rev, citedBuf[:0]) {
			if r == current && cl.Dead {
				dead = append(dead, cl.URL)
			}
			i := find(links, cl.URL)
			if i < 0 {
				i = len(links)
				links = append(links, LinkHistory{
					Title:      a.Title,
					URL:        cl.URL,
					Added:      simclock.Never,
					MarkedDead: simclock.Never,
				})
				foldedIn = append(foldedIn, r)
			} else if foldedIn[i] == r {
				continue
			}
			foldedIn[i] = r
			h := &links[i]
			if !h.Added.Valid() {
				h.Added = rev.Day
				h.AddedBy = rev.User
			}
			if !h.MarkedDead.Valid() && cl.Dead {
				h.MarkedDead = rev.Day
				h.MarkedDeadBy = rev.User
				h.DeadLinkBot = cl.DeadLinkBot
			}
			if r == current {
				h.ArchiveURL = cl.ArchiveURL
				h.Patched = h.ArchiveURL != ""
			}
		}
	}
	// Clipped, so a caller's append copies instead of writing into
	// spare capacity the memo shares.
	var ah ArticleHistory
	if len(dead) > 0 {
		ah.Dead = slices.Clip(slices.Clone(dead))
	}
	if len(links) > 0 {
		ah.links = slices.Clip(slices.Clone(links))
	}
	return ah
}

// HistoryOf reconstructs the LinkHistory for url in the titled article.
// It returns ok=false when the article does not exist or never
// contained the URL. It is a lookup into MineHistory's kept fold, so
// only the first call per article version parses it.
func (w *Wiki) HistoryOf(title, url string) (LinkHistory, bool) {
	return w.MineHistory(title).Link(url)
}

// DeadLinks lists, for the article's current revision, every cited
// link carrying a {{dead link}} tag, read off its kept RevisionLinks.
// The slice is the caller's.
func (w *Wiki) DeadLinks(title string) []CitedURL {
	a := w.Article(title)
	if a == nil {
		return nil
	}
	var out []CitedURL
	for _, cl := range w.Links(a.Current()).Cited {
		if cl.Dead {
			out = append(out, cl)
		}
	}
	return out
}
