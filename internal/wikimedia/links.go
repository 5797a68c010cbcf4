package wikimedia

import (
	"slices"
	"sync/atomic"

	"permadead/internal/wikitext"
)

// RevisionLinks is the wiki's read-only digest of one revision's
// wikitext: everything the history fold, the bots' decisions, the edit
// stream and category listings read from a revision. Wiki.Links builds
// it on the first read and keeps it. It is shared: a caller reads it
// and never writes it.
type RevisionLinks struct {
	// Cited has one entry per cited link, in wikitext.AppendCited order,
	// so an index into it names the link to a wikitext.Edit.
	Cited []CitedURL
	// Categories lists the revision's categories once each, in order
	// of first appearance, in canonical form
	// (wikitext.CanonicalCategory).
	Categories []string

	text string // the wikitext summarized, so an ID reused with other text is re-read
}

// CitedURL is one cited link as a revision's wikitext shows it.
type CitedURL = wikitext.CitedURL

// ExternalURLs returns the distinct non-empty cited URLs, in the order
// each first appears in Cited. The slice is the caller's.
func (l *RevisionLinks) ExternalURLs() []string {
	var out []string
	for _, c := range l.Cited {
		// A revision cites a few URLs, so a scan beats a set.
		if c.URL != "" && !slices.Contains(out, c.URL) {
			out = append(out, c.URL)
		}
	}
	return out
}

// HasCategory reports whether the revision is in the named category,
// at any depth, matching canonical names (wikitext.CanonicalCategory).
func (l *RevisionLinks) HasCategory(name string) bool {
	want := wikitext.CanonicalCategory(name)
	for _, c := range l.Categories {
		if c == want {
			return true
		}
	}
	return false
}

// parses counts the wiki's reads of revision text, a digest scan or an
// edit's span scan (Revision.Apply), so a test can hold generation to
// one read per revision plus one per edited document.
var parses atomic.Int64

// summarize digests text into a RevisionLinks.
func summarize(text string) *RevisionLinks {
	parses.Add(1)
	cited, cats := wikitext.AppendDigest(nil, nil, text)
	return &RevisionLinks{Cited: cited, Categories: cats, text: text}
}

// Links returns the wiki's RevisionLinks of rev, a revision of one of
// its articles, digesting rev's text on the first read only. Every
// read-only consumer of a revision's wikitext but the history fold
// (citedLinks) goes through here; Revision.Apply is for callers that
// edit it.
func (w *Wiki) Links(rev *Revision) *RevisionLinks {
	if l := w.keptLinks(rev); l != nil {
		return l
	}
	// Should two readers race, both digests are equal and either may
	// stay.
	l := summarize(rev.Text)
	w.linksMu.Lock()
	if w.links == nil {
		w.links = make(map[int]*RevisionLinks)
	}
	l = w.linksSlab.keep(l)
	w.links[rev.ID] = l
	w.linksMu.Unlock()
	return l
}

// slab packs the digests a wiki keeps into shared chunks. A digest is
// built among generation's short-lived garbage; kept as its own few small
// objects, each would hold a mostly free heap span in use for the
// wiki's lifetime. That cost a generated Scale(0.025) universe kept in
// memory ≈ 1.5 MB of settled RSS for 0.2 MB of digests.
type slab struct {
	links []RevisionLinks
	cited []CitedURL
	cats  []string
	// names holds one copy of each canonical category name: the few
	// categories of a wiki recur in every revision.
	names map[string]string
}

// slabChunk is how many values a chunk holds.
const slabChunk = 256

// keep returns a copy of l whose struct and slices live in the slab's
// chunks. The slices are clipped, so an append by a reader copies.
func (s *slab) keep(l *RevisionLinks) *RevisionLinks {
	if len(s.links) == cap(s.links) {
		s.links = make([]RevisionLinks, 0, slabChunk)
	}
	s.links = append(s.links, *l)
	k := &s.links[len(s.links)-1]
	k.Cited = keepIn(&s.cited, l.Cited)
	k.Categories = keepIn(&s.cats, l.Categories)
	for i, c := range k.Categories {
		if name, ok := s.names[c]; ok {
			k.Categories[i] = name
			continue
		}
		if s.names == nil {
			s.names = make(map[string]string)
		}
		s.names[c] = c
	}
	return k
}

// keepIn copies vs to the end of *chunk, starting a new chunk when it
// does not fit, and returns the clipped copy (nil for none).
func keepIn[T any](chunk *[]T, vs []T) []T {
	n := len(vs)
	if n == 0 {
		return nil
	}
	if cap(*chunk)-len(*chunk) < n {
		*chunk = make([]T, 0, max(slabChunk, n))
	}
	*chunk = append(*chunk, vs...)
	c := *chunk
	return c[len(c)-n : len(c) : len(c)]
}

// citedLinks is the history fold's read of rev: the cited links of
// its kept RevisionLinks, or of a digest scan appended to buf and kept
// by nobody (always, on a nil wiki: the uncached fold). The memo keeps
// the fold, so a fold reads a revision once per article version;
// keeping a digest pays only for the readers that come back to a
// revision: the bot's scans, the edit stream and category listings.
// So a generated wiki's folds scan nothing, since the edit stream
// kept every revision's digest. A study of an unedited paged wiki
// keeps none: keeping one per revision made its first Collect ≈ 40 %
// slower in garbage collection and map upkeep.
func (w *Wiki) citedLinks(rev *Revision, buf []CitedURL) []CitedURL {
	if w != nil {
		if l := w.keptLinks(rev); l != nil {
			return l.Cited
		}
	}
	parses.Add(1)
	return wikitext.AppendCited(buf, rev.Text)
}

// keptLinks returns the RevisionLinks the wiki keeps for rev, or nil.
func (w *Wiki) keptLinks(rev *Revision) *RevisionLinks {
	w.linksMu.RLock()
	l := w.links[rev.ID]
	w.linksMu.RUnlock()
	if l != nil && l.text == rev.Text {
		return l
	}
	return nil
}
