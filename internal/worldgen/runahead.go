package worldgen

import (
	"context"
	"sync/atomic"

	"permadead/internal/fetch"
	"permadead/internal/simclock"
	"permadead/internal/simweb"
)

// The run-ahead stage. IABot tests every unmarked link of an article
// with one GET on every scan (§2.1), and a GET's answer is a pure
// function of (world, URL, day): the world is read-only until
// plantPostRunState. So one goroutine walks the timeline ahead of the
// loop that applies it and makes each scan's checks before the loop
// reaches the scan; the bot's client then answers them from the scan's
// slot. The loop stays the only writer of the wiki, the archive, the
// RNG and the bot's stats, in the same order as without the stage.
//
// The stage is a cache, not an oracle. It predicts which links a scan
// checks from a shadow of each article's cited URLs, and a check it
// did not predict falls back to a GET made inline, through the same
// client: a wrong shadow costs time, never a different universe.

// Stage counters, read by tests: the GETs the stage made, and the
// bot's checks answered from a slot or made inline.
var stageFetches, stageHits, stageMisses atomic.Int64

// dropSlots, set by tests only, empties every slot the loop takes, so
// every check misses and falls back.
var dropSlots bool

// botClient is the generator's IABot client for a scan day, shared by
// the stage and the inline fallback. It is status-only: the bot reads
// FinalStatus alone (§2.1), so with no body retained the simulated
// transport never renders one. It sets no deadline: the transport
// answers synchronously, so one would only arm a timer per check.
func botClient(w *simweb.World, day simclock.Day) *fetch.Client {
	return fetch.New(simweb.NewTransport(w, day), fetch.WithMaxBody(0), fetch.WithTimeout(0))
}

// runAhead is one generation's check stage. The stage goroutine sends
// one slot per evBotScan, in timeline order; the loop takes it with
// next before the scan runs. slots has room for every scan, so the
// stage never waits for the loop: the loop's work comes early in the
// timeline (creations, link additions) and the stage's later (scans
// of grown articles), so a stage held a few hundred scans ahead would
// wait in one stretch and make the loop wait in the next. In
// Scale(0.1) runs it got 2 100–5 600 of the 16 800 scans ahead, at most
// ≈ 1 MB of results, each freed as the loop takes it.
type runAhead struct {
	world *simweb.World
	slots chan []fetch.Result
	done  chan struct{}

	// The current scan's day and its results not yet asked for, in
	// check order. Only the loop touches them.
	day  simclock.Day
	slot []fetch.Result
}

// startRunAhead starts the stage over the sorted timeline.
func startRunAhead(w *simweb.World, pl *Plan, events []event) *runAhead {
	scans := 0
	for _, ev := range events {
		if ev.kind == evBotScan {
			scans++
		}
	}
	r := &runAhead{
		world: w,
		slots: make(chan []fetch.Result, scans),
		done:  make(chan struct{}),
	}
	go r.run(pl, events)
	return r
}

// shadowLink is one citation as the stage predicts the bot sees it:
// stopped once the bot will not GET it again.
type shadowLink struct {
	url     string
	stopped bool
}

// shadowArticle is an article's citations in the order the bot reads
// them (wikitext.AppendCited): the body's links, then the <ref>s'.
// Each group is in text order, which is the order they were added in.
type shadowArticle struct {
	body, refs []shadowLink
}

// run walks the timeline, keeping each article's shadow. A scan GETs
// the unstopped links, last first as the bot does. A link stops after
// a non-200, because the bot then patches or marks it, and on a hand
// tag of its URL.
func (r *runAhead) run(pl *Plan, events []event) {
	defer close(r.done)
	ctx := context.Background()
	shadow := make(map[string]*shadowArticle)
	var pending []*shadowLink
	for _, ev := range events {
		switch ev.kind {
		case evCreate, evAddLink:
			url, style, ok := pl.citation(ev.linkIdx, ev.bgIdx)
			if !ok {
				continue
			}
			a := shadow[ev.article]
			if a == nil {
				a = new(shadowArticle)
				shadow[ev.article] = a
			}
			if style == StyleBodyLink {
				a.body = append(a.body, shadowLink{url: url})
			} else {
				a.refs = append(a.refs, shadowLink{url: url})
			}
		case evUserMark:
			if a := shadow[ev.article]; a != nil {
				a.stopFirst(pl.Background[ev.bgIdx].URL)
			}
		case evBotScan:
			var slot []fetch.Result
			pending = pending[:0]
			if a := shadow[ev.article]; a != nil {
				pending = a.unstopped(pending)
			}
			if len(pending) > 0 {
				client := botClient(r.world, ev.day)
				slot = make([]fetch.Result, 0, len(pending))
				for _, l := range pending {
					res := client.Fetch(ctx, l.url)
					stageFetches.Add(1)
					l.stopped = res.FinalStatus != 200
					slot = append(slot, res)
				}
			}
			r.slots <- slot
		}
	}
}

// unstopped appends the article's unstopped links to dst in the order
// the bot checks them, last first.
func (a *shadowArticle) unstopped(dst []*shadowLink) []*shadowLink {
	for _, links := range [2][]shadowLink{a.refs, a.body} {
		for i := len(links) - 1; i >= 0; i-- {
			if !links[i].stopped {
				dst = append(dst, &links[i])
			}
		}
	}
	return dst
}

// stopFirst stops the first unstopped link citing url, in citation
// order, as a hand tag (userMark) marks the first untagged citation of
// its URL.
func (a *shadowArticle) stopFirst(url string) {
	for _, links := range [2][]shadowLink{a.body, a.refs} {
		for i := range links {
			if links[i].url == url && !links[i].stopped {
				links[i].stopped = true
				return
			}
		}
	}
}

// next makes the slot of the timeline's next scan, on day, current. It
// waits only while the stage is behind.
func (r *runAhead) next(day simclock.Day) {
	r.day, r.slot = day, <-r.slots
	if dropSlots {
		r.slot = nil
	}
}

// client is the bot's ClientFactory while the stage runs.
func (r *runAhead) client(day simclock.Day) fetch.Fetcher {
	if day != r.day {
		return botClient(r.world, day)
	}
	return r
}

// Fetch answers a check of the current scan from its slot, skipping
// any result the bot did not ask for, or GETs the URL inline.
func (r *runAhead) Fetch(ctx context.Context, rawURL string) fetch.Result {
	for i := range r.slot {
		if r.slot[i].URL == rawURL {
			res := r.slot[i]
			r.slot = r.slot[i+1:]
			stageHits.Add(1)
			return res
		}
	}
	stageMisses.Add(1)
	return botClient(r.world, r.day).Fetch(ctx, rawURL)
}

// join waits for the stage to finish. The loop has taken every slot
// by then, so the stage is past its last send.
func (r *runAhead) join() { <-r.done }
