// Package iabot reimplements InternetArchiveBot's link-maintenance
// policy as the paper describes and observes it (§2.1, §3, §4):
//
//   - Scanning an article, the bot extracts all outgoing external
//     links and tests each with a single HTTP GET; a link is broken
//     iff the final status code (after redirections) is not 200.
//   - For a broken link, the bot queries the Wayback Availability API
//     for the copy captured closest to when the link was added to the
//     article — but with a timeout: a slow lookup is treated as "no
//     copies exist" (§4.1).
//   - A usable copy must have initial status 200; archived copies in
//     which a redirection was observed are conservatively ignored
//     (§4.2).
//   - With a usable copy, the bot patches the citation; with none, it
//     tags the link {{dead link|bot=InternetArchiveBot}} — the
//     "permanently dead" marking — and files the article under the
//     tracking category.
//   - Once a link is marked dead it is excluded from future checks,
//     to maximize efficiency (§3 notes this, and recommends against
//     it; the RecheckDead knob implements the recommendation for the
//     ablation benchmarks).
package iabot

import (
	"context"
	"sync"
	"time"

	"permadead/internal/archive"
	"permadead/internal/fetch"
	"permadead/internal/simclock"
	"permadead/internal/wikimedia"
	"permadead/internal/wikitext"
)

// DefaultName is the bot's Wikipedia username.
const DefaultName = "InternetArchiveBot"

// Category is the tracking category for articles containing links
// marked permanently dead (§2.2).
const Category = "Articles with permanently dead external links"

// DefaultAvailabilityTimeout is the bot's Wayback lookup timeout. The
// real value is an operational constant; what matters for the study is
// that some lookups exceed it (§4.1).
const DefaultAvailabilityTimeout = 2 * time.Second

// ClientFactory builds the fetcher measuring the (simulated) live web
// as of the given day: a *fetch.Client, a *fetch.Retrier, or one that
// answers checks it has already made.
type ClientFactory func(day simclock.Day) fetch.Fetcher

// Bot is one IABot instance.
type Bot struct {
	// Name is the username recorded on the bot's edits.
	Name string
	Wiki *wikimedia.Wiki
	Arch *archive.Archive
	// NewClient supplies the live-web client for a scan day.
	NewClient ClientFactory
	// AvailabilityTimeout bounds Wayback lookups; zero disables the
	// timeout (removing the §4.1 failure mode).
	AvailabilityTimeout time.Duration
	// RecheckDead re-tests links already marked dead (the paper's §3
	// recommendation; the real bot does not).
	RecheckDead bool
	// Source overrides where availability lookups go; nil uses the
	// local Arch (LocalAvailability). Set an HTTPAvailability to run
	// the bot against a remote archive API.
	Source Availability

	mu       sync.Mutex
	stats    Stats
	addDates map[string]simclock.Day
}

// Stats aggregates a bot's activity.
type Stats struct {
	ArticlesScanned      int
	ArticlesEdited       int
	LinksChecked         int
	LinksAlive           int
	LinksBroken          int
	Patched              int
	MarkedDead           int
	AvailabilityTimeouts int
	SkippedDead          int
	SkippedArchived      int
	// Recovered counts dead-tagged links found alive again on
	// re-check (RecheckDead only).
	Recovered int
}

// New builds a bot with the default name and timeout.
func New(w *wikimedia.Wiki, a *archive.Archive, f ClientFactory) *Bot {
	return &Bot{
		Name:                DefaultName,
		Wiki:                w,
		Arch:                a,
		NewClient:           f,
		AvailabilityTimeout: DefaultAvailabilityTimeout,
		addDates:            make(map[string]simclock.Day),
	}
}

// Stats returns a copy of the bot's counters.
func (b *Bot) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}

// maintainLink decides the bot's per-link policy for one citation: an
// already-dead link is skipped (or re-tested under RecheckDead), an
// already-archived one is skipped, and an unarchived one is tested
// with a single GET — broken links get a usable archived copy patched
// in, or failing that the {{dead link}} mark (§2.1, §4). Both
// ScanArticle and ScanLink route through here, so a targeted re-scan
// cannot diverge from the full-article policy. client is called only
// when the link needs a GET. The fetches, lookups and Stats happen
// here; scanLinks applies the returned edit (the zero Edit keeps the
// link as it is), setting its Link.
func (b *Bot) maintainLink(ctx context.Context, client func() fetch.Fetcher, title string, cl wikimedia.CitedURL, day simclock.Day) wikitext.Edit {
	if cl.Dead {
		if !b.RecheckDead {
			b.count(func(s *Stats) { s.SkippedDead++ })
			return wikitext.Edit{}
		}
		res := client().Fetch(ctx, cl.URL)
		b.count(func(s *Stats) { s.LinksChecked++ })
		if res.FinalStatus == 200 {
			b.count(func(s *Stats) { s.Recovered++; s.LinksAlive++ })
			return wikitext.Edit{Op: wikitext.Untag}
		}
		b.count(func(s *Stats) { s.LinksBroken++ })
		return wikitext.Edit{}
	}
	if cl.ArchiveURL != "" {
		b.count(func(s *Stats) { s.SkippedArchived++ })
		return wikitext.Edit{}
	}

	res := client().Fetch(ctx, cl.URL)
	b.count(func(s *Stats) { s.LinksChecked++ })
	if res.FinalStatus == 200 {
		// One attempt; 200 after redirections means alive (§2.1).
		b.count(func(s *Stats) { s.LinksAlive++ })
		return wikitext.Edit{}
	}
	b.count(func(s *Stats) { s.LinksBroken++ })

	snap, found := b.lookupCopy(title, cl.URL, day)
	if found {
		b.count(func(s *Stats) { s.Patched++ })
		return wikitext.Edit{Op: wikitext.Patch, ArchiveURL: snap.WaybackURL(), Date: snap.Day.String()}
	}
	b.count(func(s *Stats) { s.MarkedDead++ })
	return wikitext.Edit{Op: wikitext.MarkDead, Date: monthYear(day), Bot: b.Name}
}

// scanLinks decides maintainLink's edit for each of the article's
// citations — all of them, or only those matching onlyURL when it is
// non-empty — from the wiki's RevisionLinks, and only when some edit
// changes the article splices the edits into its text and commits the
// result. It reports whether the article was edited.
func (b *Bot) scanLinks(ctx context.Context, title, onlyURL string, day simclock.Day) (bool, error) {
	art := b.Wiki.Article(title)
	if art == nil {
		return false, nil
	}
	client := sync.OnceValue(func() fetch.Fetcher { return b.NewClient(day) })
	cur := art.Current()
	links := b.Wiki.Links(cur).Cited

	// Last link first, the order the bot has always checked links in,
	// so its fetches and lookups run in the same sequence.
	var edits []wikitext.Edit
	var marked, patched bool
	for i := len(links) - 1; i >= 0; i-- {
		cl := links[i]
		if cl.URL == "" || (onlyURL != "" && cl.URL != onlyURL) {
			continue
		}
		if e := b.maintainLink(ctx, client, title, cl, day); e.Op != 0 {
			e.Link = i
			edits = append(edits, e)
			marked = marked || e.Op == wikitext.MarkDead
			patched = patched || e.Op == wikitext.Patch
		}
	}

	if onlyURL == "" {
		b.count(func(s *Stats) { s.ArticlesScanned++ })
	}
	if len(edits) == 0 {
		return false, nil
	}
	if marked {
		edits = append(edits, wikitext.Edit{Op: wikitext.AddCategory, Category: Category})
	}
	if _, err := b.Wiki.Edit(title, day, b.Name, editComment(patched, marked), cur.Apply(edits)); err != nil {
		return false, err
	}
	b.count(func(s *Stats) { s.ArticlesEdited++ })
	return true, nil
}

// ScanArticle runs one maintenance pass over the titled article as of
// day. It reports whether the article was edited.
func (b *Bot) ScanArticle(ctx context.Context, title string, day simclock.Day) (bool, error) {
	return b.scanLinks(ctx, title, "", day)
}

// ScanLink runs the bot's maintenance policy for a single URL's
// citations within the titled article — the continuous monitor's
// repair path: when a watched link flips to dead, the bot revisits
// just that citation instead of rescanning the whole article. Every
// occurrence of the URL in the article is maintained; other links are
// untouched. It reports whether the article was edited.
func (b *Bot) ScanLink(ctx context.Context, title, url string, day simclock.Day) (bool, error) {
	if url == "" {
		return false, nil
	}
	return b.scanLinks(ctx, title, url, day)
}

// lookupCopy queries the Availability API for a usable archived copy
// of url: initial status 200, no redirect observed, captured no later
// than the scan day, closest to the day the link was added (§2.1). A
// lookup timeout is treated as "never archived" (§4.1).
func (b *Bot) lookupCopy(title, url string, day simclock.Day) (archive.Snapshot, bool) {
	added := b.addedDay(title, url, day)
	src := b.Source
	if src == nil {
		src = LocalAvailability{Arch: b.Arch}
	}
	snap, ok, err := src.QueryUsable(url, added, day, b.AvailabilityTimeout)
	if err != nil {
		// A lookup timeout — or any transport failure against a remote
		// archive — is treated as "never archived" (§4.1).
		b.count(func(s *Stats) { s.AvailabilityTimeouts++ })
		return archive.Snapshot{}, false
	}
	return snap, ok
}

// addedDay returns (and caches) the day url was first added to the
// titled article, falling back to the scan day when history is
// missing.
func (b *Bot) addedDay(title, url string, day simclock.Day) simclock.Day {
	key := title + "\x00" + url
	b.mu.Lock()
	if d, ok := b.addDates[key]; ok {
		b.mu.Unlock()
		return d
	}
	b.mu.Unlock()

	d := day
	if h, ok := b.Wiki.HistoryOf(title, url); ok {
		d = h.Added
	}
	b.mu.Lock()
	b.addDates[key] = d
	b.mu.Unlock()
	return d
}

func (b *Bot) count(fn func(*Stats)) {
	b.mu.Lock()
	fn(&b.stats)
	b.mu.Unlock()
}

func editComment(patched, marked bool) string {
	switch {
	case patched && marked:
		return "Rescuing sources and tagging others as dead. #IABot"
	case patched:
		return "Rescuing sources. #IABot"
	default:
		return "Tagging dead links. #IABot"
	}
}

// monthYear renders a Day in the {{dead link|date=...}} format, e.g.
// "March 2022".
func monthYear(d simclock.Day) string {
	return d.Time().Format("January 2006")
}
