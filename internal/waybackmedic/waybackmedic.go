// Package waybackmedic reimplements WaybackMedic, the slower but more
// comprehensive bot the Internet Archive uses to patch Wikipedia's
// broken references (§4.1). After the paper's authors reported that
// the Wayback Machine held 200-status copies for many links IABot had
// marked permanently dead, WaybackMedic was run over all such links
// and patched 20,080 of them.
//
// The behavioural differences from IABot that matter here:
//
//   - No availability-lookup timeout: a slow lookup still completes,
//     so copies IABot missed (§4.1) are found.
//   - Optionally, validated archived redirections are accepted too
//     (the paper's §4.2 proposal), using the redircheck cross-
//     examination.
//
// Like the real bot, it operates on links already marked permanently
// dead rather than scanning every link from scratch.
package waybackmedic

import (
	"permadead/internal/archive"
	"permadead/internal/iabot"
	"permadead/internal/redircheck"
	"permadead/internal/simclock"
	"permadead/internal/wikimedia"
	"permadead/internal/wikitext"
)

// DefaultName is the bot's username (the real bot runs under GreenC's
// account).
const DefaultName = "GreenC bot"

// Medic is one WaybackMedic instance.
type Medic struct {
	Name string
	Wiki *wikimedia.Wiki
	Arch *archive.Archive
	// AcceptRedirects additionally rescues links via validated 3xx
	// copies (§4.2's proposal); nil Checker disables it even if true.
	AcceptRedirects bool
	Checker         *redircheck.Checker

	stats Stats
}

// Stats aggregates a run's outcomes.
type Stats struct {
	ArticlesVisited int
	DeadLinksSeen   int
	// Patched counts links rescued with a 200-status copy.
	Patched int
	// RedirectPatched counts links rescued with a validated 3xx copy.
	RedirectPatched int
	// Unfixable counts links for which no usable copy exists.
	Unfixable int
}

// New builds a medic without redirect rescue.
func New(w *wikimedia.Wiki, a *archive.Archive) *Medic {
	return &Medic{Name: DefaultName, Wiki: w, Arch: a}
}

// Stats returns a copy of the run counters.
func (m *Medic) Stats() Stats { return m.stats }

// Run visits every article in the permanently-dead tracking category
// as of day and attempts to rescue each dead-tagged link. It returns
// the run's stats.
func (m *Medic) Run(day simclock.Day) Stats {
	for _, title := range m.Wiki.InCategory(iabot.Category) {
		m.RunArticle(title, day)
	}
	return m.stats
}

// RunArticle rescues dead links on one article.
func (m *Medic) RunArticle(title string, day simclock.Day) {
	art := m.Wiki.Article(title)
	if art == nil {
		return
	}
	m.stats.ArticlesVisited++
	cur := art.Current()
	links := m.Wiki.Links(cur).Cited
	var edits []wikitext.Edit
	stillDead := false

	for i := len(links) - 1; i >= 0; i-- {
		cl := links[i]
		if !cl.Dead || cl.URL == "" {
			continue
		}
		m.stats.DeadLinksSeen++

		added := day
		if h, ok := m.Wiki.HistoryOf(title, cl.URL); ok {
			added = h.Added
		}

		// Untimed availability lookup: the copy closest to when the
		// link was added, initial status 200.
		snap, ok, _ := m.Arch.Query(archive.AvailabilityQuery{
			URL:    cl.URL,
			Want:   added,
			AsOf:   day,
			Accept: archive.AcceptUsable,
		})
		if ok {
			edits = append(edits, wikitext.Edit{Op: wikitext.Patch, Link: i, ArchiveURL: snap.WaybackURL(), Date: snap.Day.String()})
			m.stats.Patched++
			continue
		}

		// Optional §4.2 rescue: a validated archived redirection.
		if m.AcceptRedirects && m.Checker != nil {
			if rsnap, _, found := m.Checker.FindValidatedCopy(cl.URL, day); found {
				edits = append(edits, wikitext.Edit{Op: wikitext.Patch, Link: i, ArchiveURL: rsnap.WaybackURL(), Date: rsnap.Day.String()})
				m.stats.RedirectPatched++
				continue
			}
		}
		m.stats.Unfixable++
		stillDead = true
	}

	if len(edits) == 0 {
		return
	}
	if !stillDead {
		edits = append(edits, wikitext.Edit{Op: wikitext.RemoveCategory, Category: iabot.Category})
	}
	m.Wiki.Edit(title, day, m.Name, "Rescuing archived links via WaybackMedic", cur.Apply(edits)) //nolint:errcheck
}
