package iabot

import (
	"context"
	"sync"

	"permadead/internal/fetch"
	"permadead/internal/simclock"
	"permadead/internal/wikitext"
)

// ScanInPlace is scanLinks as it was before decide-then-apply: it
// parses the current revision on every scan and runs the per-link
// policy on the parsed citations, patching the tree as it walks them
// backwards. It is kept, test-only, as the reference the RevisionLinks
// decisions and the apply step are held to.
func (b *Bot) ScanInPlace(ctx context.Context, title, onlyURL string, day simclock.Day) (bool, error) {
	art := b.Wiki.Article(title)
	if art == nil {
		return false, nil
	}
	client := sync.OnceValue(func() *fetch.Client { return b.NewClient(day) })
	doc := art.Current().Doc()
	links := doc.CitedLinks()

	var changed, marked, patched bool
	for i := len(links) - 1; i >= 0; i-- {
		cl := links[i]
		if cl.URL == "" || (onlyURL != "" && cl.URL != onlyURL) {
			continue
		}
		c, m, p := b.maintainLinkInPlace(ctx, client, title, cl, day)
		changed, marked, patched = changed || c, marked || m, patched || p
	}

	if onlyURL == "" {
		b.count(func(s *Stats) { s.ArticlesScanned++ })
	}
	if !changed {
		return false, nil
	}
	if marked {
		doc.AddCategory(Category)
	}
	if _, err := b.Wiki.Edit(title, day, b.Name, editComment(patched, marked), doc.Render()); err != nil {
		return false, err
	}
	b.count(func(s *Stats) { s.ArticlesEdited++ })
	return true, nil
}

// maintainLinkInPlace is maintainLink deciding and editing in one
// step, on a parsed citation.
func (b *Bot) maintainLinkInPlace(ctx context.Context, client func() *fetch.Client, title string, cl *wikitext.CitedLink, day simclock.Day) (changed, marked, patched bool) {
	if cl.IsDead() {
		if !b.RecheckDead {
			b.count(func(s *Stats) { s.SkippedDead++ })
			return
		}
		res := client().Fetch(ctx, cl.URL)
		b.count(func(s *Stats) { s.LinksChecked++ })
		if res.FinalStatus == 200 {
			cl.RemoveDeadTag()
			b.count(func(s *Stats) { s.Recovered++; s.LinksAlive++ })
			changed = true
		} else {
			b.count(func(s *Stats) { s.LinksBroken++ })
		}
		return
	}
	if cl.ArchiveURL() != "" {
		b.count(func(s *Stats) { s.SkippedArchived++ })
		return
	}

	res := client().Fetch(ctx, cl.URL)
	b.count(func(s *Stats) { s.LinksChecked++ })
	if res.FinalStatus == 200 {
		b.count(func(s *Stats) { s.LinksAlive++ })
		return
	}
	b.count(func(s *Stats) { s.LinksBroken++ })

	snap, found := b.lookupCopy(title, cl.URL, day)
	if found {
		cl.PatchWithArchive(snap.WaybackURL(), snap.Day.String())
		b.count(func(s *Stats) { s.Patched++ })
		patched = true
	} else {
		cl.MarkDead(monthYear(day), b.Name)
		b.count(func(s *Stats) { s.MarkedDead++ })
		marked = true
	}
	return true, marked, patched
}
