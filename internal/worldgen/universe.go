package worldgen

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"permadead/internal/archive"
	"permadead/internal/fetch"
	"permadead/internal/hashx"
	"permadead/internal/iabot"
	"permadead/internal/simclock"
	"permadead/internal/simweb"
	"permadead/internal/wikimedia"
	"permadead/internal/wikitext"
)

// Universe is a fully generated and timeline-executed simulation: the
// web, the wiki (with IABot's edits applied), and the archive, ready
// for the study pipeline to measure.
type Universe struct {
	Params  Params
	Plan    *Plan
	World   *simweb.World
	Wiki    *wikimedia.Wiki
	Archive *archive.Archive
	Bot     *iabot.Bot

	// Unmarked lists destined-PD URLs the timeline failed to mark
	// (generation slippage; expected to be empty or tiny).
	Unmarked []string
}

// Generate builds and executes a universe from the parameters.
func Generate(p Params) *Universe {
	progress := p.Progress
	if progress == nil {
		progress = func(string, int, int) {}
	}
	progress("planning", 0, 0)
	plan := NewPlan(p)
	rng := rand.New(rand.NewSource(p.Seed + 1))

	progress("building world", 0, 0)
	world := buildWorld(plan, rng)
	// Transient-fault windows ride on their own RNG stream so the
	// universe is byte-identical whether injection is on or off.
	plantFaults(p, world)
	arch := archive.New()
	crawler := NewCrawler(world, arch)

	// Capture on post (§5.1): each link is captured its planned first-
	// capture delay after it is posted, standing in for every capture
	// channel; links destined to be never archived are never picked up.
	// A removal captures nothing.
	delays := planDelays(plan)
	wiki := wikimedia.NewWiki()
	wiki.Subscribe(func(ev wikimedia.LinkEvent) {
		if delay, ok := delays[ev.URL]; ok && !ev.Removed {
			crawler.Capture(ev.URL, ev.Day.Add(delay)) //nolint:errcheck
		}
	})

	plantArchiveState(plan, rng, crawler, arch)

	bot := iabot.New(wiki, arch, func(day simclock.Day) fetch.Fetcher {
		return botClient(world, day)
	})

	u := &Universe{
		Params: p, Plan: plan, World: world, Wiki: wiki,
		Archive: arch, Bot: bot,
	}
	progress("running timeline", 0, 0)
	u.runTimeline(rng, progress)
	// runTimeline has joined its check stage: the world is written
	// from here on.
	progress("planting post-run state", 0, 0)
	u.plantPostRunState(rng, crawler)
	// History is complete: freeze the archive so the study's CDX reads
	// run lock-free against the freeze-time indexes and any stray
	// capture fails loudly.
	progress("freezing archive", 0, 0)
	arch.Freeze()
	progress("done", 0, 0)
	return u
}

// planDelays maps every planned URL that capture on post picks up to
// its destined first-capture delay in days. Should a URL be planned
// twice, its last plan entry decides.
func planDelays(pl *Plan) map[string]int {
	m := make(map[string]int, len(pl.Links)+len(pl.Background))
	for _, lp := range pl.Links {
		if lp.FirstCapture.Valid() && !lp.PrePost {
			m[lp.URL] = lp.FirstCapture.Sub(lp.PostDay)
		} else {
			delete(m, lp.URL)
		}
	}
	for _, bg := range pl.Background {
		if bg.Kind == BgPatched {
			m[bg.URL] = bg.CaptureDay.Sub(bg.PostDay)
		} else {
			delete(m, bg.URL)
		}
	}
	return m
}

// timeline event kinds, in same-day execution order.
const (
	evCreate = iota
	evAddLink
	evUserMark
	evBotScan
)

type event struct {
	day  simclock.Day
	kind int
	// article is the target title.
	article string
	// linkIdx / bgIdx identify the link for add/mark events (-1 unused).
	linkIdx, bgIdx int
	// seq is the event's index as planned, the last key of its order.
	seq int
}

// timeline lists the plan's events in execution order: by day, then
// kind, then as planned. The key is total, so an unstable sort gives
// the order a stable sort by (day, kind) would.
func timeline(pl *Plan) []event {
	events := plannedEvents(pl)
	slices.SortFunc(events, func(a, b event) int {
		return cmp.Or(cmp.Compare(a.day, b.day), cmp.Compare(a.kind, b.kind), cmp.Compare(a.seq, b.seq))
	})
	return events
}

// plannedEvents lists the plan's events unsorted, each numbered by
// seq: article creations, link additions and IABot scans article by
// article, then manual dead-tags.
func plannedEvents(pl *Plan) []event {
	var events []event
	add := func(ev event) {
		ev.seq = len(events)
		events = append(events, ev)
	}

	for _, ap := range pl.Articles {
		// Order the article's links by posting day; the first one is
		// part of the created article, the rest arrive as edits.
		type linkRef struct {
			day     simclock.Day
			linkIdx int
			bgIdx   int
		}
		var refs []linkRef
		for _, li := range ap.Links {
			refs = append(refs, linkRef{pl.Links[li].PostDay, li, -1})
		}
		for _, bi := range ap.Background {
			refs = append(refs, linkRef{pl.Background[bi].PostDay, -1, bi})
		}
		slices.SortStableFunc(refs, func(a, b linkRef) int { return cmp.Compare(a.day, b.day) })

		add(event{day: refs[0].day, kind: evCreate,
			article: ap.Title, linkIdx: refs[0].linkIdx, bgIdx: refs[0].bgIdx})
		for _, r := range refs[1:] {
			add(event{day: r.day, kind: evAddLink,
				article: ap.Title, linkIdx: r.linkIdx, bgIdx: r.bgIdx})
		}
		for _, day := range ScanDays(pl.Params, ap.Title, refs[0].day) {
			add(event{day: day, kind: evBotScan, article: ap.Title, linkIdx: -1, bgIdx: -1})
		}
	}
	for bi, bg := range pl.Background {
		if bg.Kind == BgUserMarked && bg.UserMarkDay.Valid() {
			add(event{day: bg.UserMarkDay, kind: evUserMark,
				article: bg.Article, linkIdx: -1, bgIdx: bi})
		}
	}
	return events
}

// runTimeline executes the universe's history in day order: article
// creations, link additions, manual dead-tags, and IABot scans. The
// scans' GETs are made ahead by the run-ahead stage (runahead.go),
// which is joined, and the bot's factory restored, before it returns.
func (u *Universe) runTimeline(rng *rand.Rand, progress func(string, int, int)) {
	pl := u.Plan
	events := timeline(pl)
	stage := startRunAhead(u.World, pl, events)
	plain := u.Bot.NewClient
	u.Bot.NewClient = stage.client

	ctx := context.Background()
	step := len(events)/20 + 1
	for i, ev := range events {
		if i%step == 0 {
			progress("timeline", i, len(events))
		}
		switch ev.kind {
		case evCreate:
			u.Wiki.Create(ev.article, ev.day, username(rng), u.articleText(rng, ev))
		case evAddLink:
			u.addLink(rng, ev)
		case evUserMark:
			u.userMark(ev)
		case evBotScan:
			stage.next(ev.day)
			u.Bot.ScanArticle(ctx, ev.article, ev.day) //nolint:errcheck
		}
	}
	stage.join()
	u.Bot.NewClient = plain

	// Verify every destined link was marked by IABot.
	for _, lp := range pl.Links {
		h, ok := u.Wiki.HistoryOf(lp.Article, lp.URL)
		if !ok || !h.MarkedDead.Valid() || h.DeadLinkBot != iabot.DefaultName {
			u.Unmarked = append(u.Unmarked, lp.URL)
			continue
		}
		lp.MarkDay = h.MarkedDead // replace analytic with actual
	}
}

// articleText renders an article's initial wikitext with its first
// link.
func (u *Universe) articleText(rng *rand.Rand, ev event) string {
	var b strings.Builder
	fmt.Fprintf(&b, "'''%s''' is a subject documented from contemporary sources.\n\n", ev.article)
	b.WriteString(u.linkMarkup(rng, ev.linkIdx, ev.bgIdx))
	b.WriteString("\n\n[[Category:Simulated articles]]\n")
	return b.String()
}

// addLink appends one citation to an existing article.
func (u *Universe) addLink(rng *rand.Rand, ev event) {
	art := u.Wiki.Article(ev.article)
	if art == nil {
		return
	}
	text := art.Current().Text + "\n" + u.linkMarkup(rng, ev.linkIdx, ev.bgIdx)
	u.Wiki.Edit(ev.article, ev.day, username(rng), "Adding a reference", text) //nolint:errcheck
}

// citation is the URL and style of a planned link or background link;
// ok is false when both indexes are -1.
func (pl *Plan) citation(linkIdx, bgIdx int) (url string, style LinkStyle, ok bool) {
	switch {
	case linkIdx >= 0:
		return pl.Links[linkIdx].URL, pl.Links[linkIdx].Style, true
	case bgIdx >= 0:
		return pl.Background[bgIdx].URL, pl.Background[bgIdx].Style, true
	}
	return "", 0, false
}

// linkMarkup renders a link's citation in its planned style.
func (u *Universe) linkMarkup(rng *rand.Rand, linkIdx, bgIdx int) string {
	url, style, ok := u.Plan.citation(linkIdx, bgIdx)
	if !ok {
		return ""
	}
	title := citeTitle(rng)
	sentence := "A contemporary account corroborates this."
	switch style {
	case StyleCiteRef:
		return fmt.Sprintf("%s<ref>{{cite web|url=%s|title=%s|access-date=%s}}</ref>",
			sentence, url, title, simclock.Day(0).String())
	case StyleBareRef:
		return fmt.Sprintf("%s<ref>[%s %s]</ref>", sentence, url, title)
	default:
		return fmt.Sprintf("Further reading: %s", url)
	}
}

func citeTitle(rng *rand.Rand) string {
	a := slugWords[rng.Intn(len(slugWords))]
	b := slugWords[rng.Intn(len(slugWords))]
	return upperFirst(a) + " " + upperFirst(b)
}

func upperFirst(w string) string {
	if w == "" || w[0] < 'a' || w[0] > 'z' {
		return w
	}
	return string(w[0]-'a'+'A') + w[1:]
}

// userMark applies a manual {{dead link}} tag, as a human editor would.
func (u *Universe) userMark(ev event) {
	bg := u.Plan.Background[ev.bgIdx]
	art := u.Wiki.Article(ev.article)
	if art == nil {
		return
	}
	cur := art.Current()
	for i, cl := range u.Wiki.Links(cur).Cited {
		if cl.URL == bg.URL && !cl.Dead {
			edits := []wikitext.Edit{
				{Op: wikitext.MarkDead, Link: i, Date: ev.day.Time().Format("January 2006")},
				{Op: wikitext.AddCategory, Category: iabot.Category},
			}
			u.Wiki.Edit(ev.article, ev.day, "Editor"+fmt.Sprint(1+int(hashx.FNV1a(bg.URL)%500)),
				"Tagging dead link", cur.Apply(edits)) //nolint:errcheck
			return
		}
	}
}

// plantPostRunState applies the world changes that, by construction,
// happen after IABot marked each link: §3 recoveries (redirects
// installed, pages restored) and post-mark archive captures.
func (u *Universe) plantPostRunState(rng *rand.Rand, crawler *Crawler) {
	p := u.Params
	for _, lp := range u.Plan.Links {
		if !lp.MarkDay.Valid() {
			continue
		}
		var recovery simclock.Day = simclock.Never
		if lp.Live == Live200Real {
			recovery = clampDay(lp.MarkDay.Add(60+rng.Intn(400)),
				lp.MarkDay.Add(1), p.StudyTime.Add(-15))
			_, pg := u.World.PageByURL(lp.URL)
			if pg == nil {
				continue
			}
			if lp.ViaRedirect {
				pg.RedirectFrom = recovery
			} else {
				pg.RestoredAt = recovery
			}
		}
		if lp.PostMarkCapture && lp.Hist != HistNone {
			day := lp.MarkDay.Add(30 + rng.Intn(270))
			if recovery.Valid() {
				day = recovery.Add(10 + rng.Intn(50))
			}
			if day.After(p.StudyTime.Add(-1)) {
				day = p.StudyTime.Add(-1)
			}
			crawler.Capture(lp.URL, day) //nolint:errcheck
		}
	}
}

// Summary renders generation statistics.
func (u *Universe) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "universe: seed=%d\n", u.Params.Seed)
	fmt.Fprintf(&b, "  sites: %d\n", u.World.Sites())
	fmt.Fprintf(&b, "  articles: %d\n", u.Wiki.Len())
	fmt.Fprintf(&b, "  pd links planned: %d (unmarked: %d)\n", len(u.Plan.Links), len(u.Unmarked))
	fmt.Fprintf(&b, "  snapshots: %d\n", u.Archive.TotalSnapshots())
	st := u.Bot.Stats()
	fmt.Fprintf(&b, "  iabot: scanned=%d checked=%d patched=%d marked=%d timeouts=%d\n",
		st.ArticlesScanned, st.LinksChecked, st.Patched, st.MarkedDead, st.AvailabilityTimeouts)
	return b.String()
}
