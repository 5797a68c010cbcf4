package iabot

import (
	"context"
	"sync"

	"permadead/internal/fetch"
	"permadead/internal/simclock"
	"permadead/internal/wikimedia"
	"permadead/internal/wikitext"
)

// ScanInPlace is scanLinks as it was before decide-then-apply: it runs
// the per-link policy on the current revision's citations and makes
// each decided edit at once, a one-edit wikitext.Apply on the text as
// it then stands, walking the links backwards so that no edit moves a
// link still to come; the category goes in last. It is kept, test-only,
// as the reference the decisions and scanLinks' one multi-edit Apply
// are held to.
func (b *Bot) ScanInPlace(ctx context.Context, title, onlyURL string, day simclock.Day) (bool, error) {
	art := b.Wiki.Article(title)
	if art == nil {
		return false, nil
	}
	client := sync.OnceValue(func() *fetch.Client { return b.NewClient(day) })
	text := art.Current().Text
	links := b.Wiki.Links(art.Current()).Cited

	var changed, marked, patched bool
	for i := len(links) - 1; i >= 0; i-- {
		cl := links[i]
		if cl.URL == "" || (onlyURL != "" && cl.URL != onlyURL) {
			continue
		}
		c, m, p := b.maintainLinkInPlace(ctx, client, title, &text, i, cl, day)
		changed, marked, patched = changed || c, marked || m, patched || p
	}

	if onlyURL == "" {
		b.count(func(s *Stats) { s.ArticlesScanned++ })
	}
	if !changed {
		return false, nil
	}
	if marked {
		text = wikitext.Apply(text, []wikitext.Edit{{Op: wikitext.AddCategory, Category: Category}})
	}
	if _, err := b.Wiki.Edit(title, day, b.Name, editComment(patched, marked), text); err != nil {
		return false, err
	}
	b.count(func(s *Stats) { s.ArticlesEdited++ })
	return true, nil
}

// maintainLinkInPlace is maintainLink deciding and editing in one
// step: it applies its edit to link i of *text at once.
func (b *Bot) maintainLinkInPlace(ctx context.Context, client func() *fetch.Client, title string, text *string, i int, cl wikimedia.CitedURL, day simclock.Day) (changed, marked, patched bool) {
	edit := func(e wikitext.Edit) {
		e.Link = i
		*text = wikitext.Apply(*text, []wikitext.Edit{e})
	}
	if cl.Dead {
		if !b.RecheckDead {
			b.count(func(s *Stats) { s.SkippedDead++ })
			return
		}
		res := client().Fetch(ctx, cl.URL)
		b.count(func(s *Stats) { s.LinksChecked++ })
		if res.FinalStatus == 200 {
			edit(wikitext.Edit{Op: wikitext.Untag})
			b.count(func(s *Stats) { s.Recovered++; s.LinksAlive++ })
			changed = true
		} else {
			b.count(func(s *Stats) { s.LinksBroken++ })
		}
		return
	}
	if cl.ArchiveURL != "" {
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
		edit(wikitext.Edit{Op: wikitext.Patch, ArchiveURL: snap.WaybackURL(), Date: snap.Day.String()})
		b.count(func(s *Stats) { s.Patched++ })
		patched = true
	} else {
		edit(wikitext.Edit{Op: wikitext.MarkDead, Date: monthYear(day), Bot: b.Name})
		b.count(func(s *Stats) { s.MarkedDead++ })
		marked = true
	}
	return true, marked, patched
}
