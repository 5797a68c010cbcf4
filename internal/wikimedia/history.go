package wikimedia

import (
	"permadead/internal/simclock"
	"permadead/internal/wikitext"
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
// dead-tagged links. It is computed on demand by MineHistory; nothing
// retains it.
type ArticleHistory struct {
	// Dead lists every cited link of the current revision carrying a
	// {{dead link}} tag, in CitedLinks order (what DeadLinks returns).
	Dead []*wikitext.CitedLink

	links []LinkHistory
	index map[string]int // URL -> position in links
}

// Link returns the LinkHistory of url, with ok=false when the article
// never contained it.
func (ah ArticleHistory) Link(url string) (LinkHistory, bool) {
	i, ok := ah.index[url]
	if !ok || !ah.links[i].Added.Valid() {
		return LinkHistory{}, false
	}
	return ah.links[i], true
}

// MineHistory walks the titled article's revisions oldest-first,
// parsing each revision once, and folds the LinkHistory of every URL
// cited along the way. Within one revision only a URL's first
// occurrence (in CitedLinks order) counts: a second citation of the
// same URL neither tags it nor supplies its archive link. An unknown
// title yields an empty history.
func (w *Wiki) MineHistory(title string) ArticleHistory {
	ah := ArticleHistory{index: make(map[string]int)}
	a := w.Article(title)
	if a == nil {
		return ah
	}
	// foldedIn[i] is the last revision that folded links[i], so a
	// repeat occurrence within one revision is recognised without a
	// per-revision set.
	var foldedIn []int
	current := len(a.Revisions) - 1
	for r := range a.Revisions {
		rev := &a.Revisions[r]
		for _, cl := range rev.Doc().CitedLinks() {
			if r == current && cl.IsDead() {
				ah.Dead = append(ah.Dead, cl)
			}
			i, known := ah.index[cl.URL]
			if known && foldedIn[i] == r {
				continue
			}
			if !known {
				i = len(ah.links)
				ah.index[cl.URL] = i
				ah.links = append(ah.links, LinkHistory{
					Title:      title,
					URL:        cl.URL,
					Added:      simclock.Never,
					MarkedDead: simclock.Never,
				})
				foldedIn = append(foldedIn, r)
			}
			foldedIn[i] = r
			h := &ah.links[i]
			if !h.Added.Valid() {
				h.Added = rev.Day
				h.AddedBy = rev.User
			}
			if !h.MarkedDead.Valid() && cl.IsDead() {
				h.MarkedDead = rev.Day
				h.MarkedDeadBy = rev.User
				h.DeadLinkBot = cl.DeadLinkBot()
			}
			if r == current {
				h.ArchiveURL = cl.ArchiveURL()
				h.Patched = h.ArchiveURL != ""
			}
		}
	}
	return ah
}

// HistoryOf reconstructs the LinkHistory for url in the titled article.
// It returns ok=false when the article does not exist or never
// contained the URL. Callers that need several URLs of one article
// should hold on to MineHistory's result instead: each call here
// re-mines the whole article.
func (w *Wiki) HistoryOf(title, url string) (LinkHistory, bool) {
	return w.MineHistory(title).Link(url)
}

// DeadLinks lists, for the article's current revision, every cited
// link carrying a {{dead link}} tag.
func (w *Wiki) DeadLinks(title string) []*wikitext.CitedLink {
	a := w.Article(title)
	if a == nil {
		return nil
	}
	var out []*wikitext.CitedLink
	for _, cl := range a.Current().Doc().CitedLinks() {
		if cl.IsDead() {
			out = append(out, cl)
		}
	}
	return out
}
