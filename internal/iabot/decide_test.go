package iabot_test

import (
	"context"
	"fmt"
	"testing"

	"permadead/internal/fetch"
	"permadead/internal/iabot"
	"permadead/internal/simclock"
	"permadead/internal/simweb"
	"permadead/internal/wikimedia"
	"permadead/internal/worldgen"
)

// TestDecideThenApplyMatchesInPlaceScan holds scanLinks to the in-place
// scan it replaced over every IABot scan of a Scale(0.05) timeline: for
// each article and each of its scan days, two fresh wikis hold the
// article's history up to that day, one bot scans each way, and the
// two must edit alike, render the same text and count the same Stats.
// It runs with RecheckDead off (the real bot) and on, and also runs a
// targeted ScanLink on each article's last cited URL.
func TestDecideThenApplyMatchesInPlaceScan(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a universe")
	}
	u := worldgen.Generate(worldgen.DefaultParams().Scale(0.05))
	clients := func(day simclock.Day) fetch.Fetcher {
		return fetch.New(simweb.NewTransport(u.World, day), fetch.WithMaxBody(0))
	}
	// wikiAsOf holds a's history as IABot's scan on day met it: every
	// revision saved before that day, and the day's edits but the bot's
	// own (scans run after the day's other edits).
	wikiAsOf := func(a *wikimedia.Article, day simclock.Day) *wikimedia.Wiki {
		w := wikimedia.NewWiki()
		for i, r := range a.Revisions {
			switch {
			case r.Day.After(day) || (r.Day == day && r.User == iabot.DefaultName):
				return w
			case i == 0:
				w.Create(a.Title, r.Day, r.User, r.Text)
			default:
				if _, err := w.Edit(a.Title, r.Day, r.User, r.Comment, r.Text); err != nil {
					t.Fatal(err)
				}
			}
		}
		return w
	}

	ctx := context.Background()
	for _, recheck := range []bool{false, true} {
		var scans, edits int
		var total iabot.Stats
		compare := func(title, onlyURL string, day simclock.Day, a *wikimedia.Article) {
			ref, dec := wikiAsOf(a, day), wikiAsOf(a, day)
			refBot, decBot := iabot.New(ref, u.Archive, clients), iabot.New(dec, u.Archive, clients)
			refBot.RecheckDead, decBot.RecheckDead = recheck, recheck

			refEdited, refErr := refBot.ScanInPlace(ctx, title, onlyURL, day)
			var decEdited bool
			var decErr error
			if onlyURL == "" {
				decEdited, decErr = decBot.ScanArticle(ctx, title, day)
			} else {
				decEdited, decErr = decBot.ScanLink(ctx, title, onlyURL, day)
			}
			scan := fmt.Sprintf("RecheckDead=%v: scan of %q (url %q) on %v", recheck, title, onlyURL, day)
			if decEdited != refEdited || fmt.Sprint(decErr) != fmt.Sprint(refErr) {
				t.Fatalf("%s: edited %v, err %v; the in-place scan: edited %v, err %v", scan, decEdited, decErr, refEdited, refErr)
			}
			if got, want := dec.Article(title).Current(), ref.Article(title).Current(); got.Text != want.Text || got.Comment != want.Comment {
				t.Fatalf("%s rendered\n%q (%q)\nthe in-place scan rendered\n%q (%q)", scan, got.Text, got.Comment, want.Text, want.Comment)
			}
			if got, want := decBot.Stats(), refBot.Stats(); got != want {
				t.Fatalf("%s: stats %+v, the in-place scan's %+v", scan, got, want)
			}
			scans++
			if decEdited {
				edits++
			}
			addStats(&total, decBot.Stats())
		}
		for _, title := range u.Wiki.Titles() {
			a := u.Wiki.Article(title)
			days := worldgen.ScanDays(u.Params, title, a.Revisions[0].Day)
			for _, day := range days {
				compare(title, "", day, a)
			}
			if urls := u.Wiki.Links(a.Current()).ExternalURLs(); len(urls) > 0 && len(days) > 0 {
				compare(title, urls[len(urls)-1], days[len(days)-1], a)
			}
		}
		t.Logf("RecheckDead=%v: %d scans, %d edits, stats %+v", recheck, scans, edits, total)
		// The comparison means something only if the scans did each kind
		// of edit and skip.
		if edits == 0 || total.Patched == 0 || total.MarkedDead == 0 || total.SkippedArchived == 0 ||
			(recheck && total.Recovered == 0) || (!recheck && total.SkippedDead == 0) {
			t.Errorf("RecheckDead=%v: %d scans, %d edits, stats %+v: some policy branch never ran", recheck, scans, edits, total)
		}
	}
}

func addStats(dst *iabot.Stats, s iabot.Stats) {
	dst.ArticlesScanned += s.ArticlesScanned
	dst.ArticlesEdited += s.ArticlesEdited
	dst.LinksChecked += s.LinksChecked
	dst.LinksAlive += s.LinksAlive
	dst.LinksBroken += s.LinksBroken
	dst.AvailabilityTimeouts += s.AvailabilityTimeouts
	dst.Patched += s.Patched
	dst.MarkedDead += s.MarkedDead
	dst.SkippedDead += s.SkippedDead
	dst.SkippedArchived += s.SkippedArchived
	dst.Recovered += s.Recovered
}
