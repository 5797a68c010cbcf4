package worldgen

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"permadead/internal/archive"
	"permadead/internal/hashx"
	"permadead/internal/simclock"
	"permadead/internal/simweb"
)

// Slow-lookup latency bounds for HistPre200 URLs. Every value exceeds
// IABot's production timeout — the bot's lookup gives up (§4.1) while
// WaybackMedic's untimed lookup succeeds — and the distribution is
// heavy-tailed so the §4.1 timeout ablation sweeps out a curve rather
// than a cliff.
const (
	slowLookupMin  = 2500 * time.Millisecond
	slowLookupTail = 60 * time.Second
)

// slowLookupLatency derives a deterministic heavy-tailed latency above
// the production timeout for one URL.
func slowLookupLatency(url string) time.Duration {
	h := hashx.FNV1a(url)
	base := slowLookupMin + time.Duration(h%4000)*time.Millisecond // 2.5–6.5s
	if h%5 == 0 {
		// One in five lookups is pathologically slow, out to a minute.
		tail := time.Duration((h>>8)%uint64(slowLookupTail/time.Millisecond)) * time.Millisecond
		if base+tail > slowLookupTail {
			return slowLookupTail
		}
		return base + tail
	}
	return base
}

// buildWorld realizes every site and page the plan calls for.
func buildWorld(pl *Plan, rng *rand.Rand) *simweb.World {
	w := simweb.NewWorld()

	for _, d := range pl.Domains {
		sites := buildSites(w, pl, d)
		for _, li := range d.Links {
			buildLinkPage(pl, rng, sites, pl.Links[li])
		}
	}
	for _, d := range pl.BgDomains {
		buildSites(w, pl, d)
	}
	for _, bg := range pl.Background {
		site := w.Site(bg.Host)
		pg := site.AddPage(bg.Path, bg.PostDay.Add(-(10 + rng.Intn(800))))
		if pg.Created < site.Created {
			pg.Created = site.Created
		}
		if bg.DeathDay.Valid() {
			pg.DeletedAt = bg.DeathDay
		}
	}
	return w
}

// buildSites creates the domain's hosts with their site-level destiny.
func buildSites(w *simweb.World, pl *Plan, d *DomainPlan) map[string]*simweb.Site {
	sites := make(map[string]*simweb.Site, len(d.Hosts))
	for _, host := range d.Hosts {
		s := w.AddSite(host, d.Created)
		s.Rank = d.Rank
		s.Seed = hashx.FNV1a(d.Domain)

		switch d.Live {
		case LiveDNS:
			s.DNSDiesAt = d.EventDay
		case LiveTimeout:
			s.TimeoutFrom = d.EventDay
		case LiveOther:
			if d.Soft == OtherGeoBlocked {
				s.GeoBlockedFrom = d.EventDay
			} else {
				s.OutageFrom = d.EventDay
				s.OutageTo = simclock.Never // ongoing at study time
			}
		case Live200Soft:
			switch d.Soft {
			case SoftParked:
				s.ParkedAt = d.EventDay
			case SoftRedirectHome:
				s.ErrorStyleSwitchAt = d.EventDay
				s.ErrorStyleAfter = simweb.SoftRedirectHome
			case SoftBoilerplate:
				s.ErrorStyleSwitchAt = d.EventDay
				s.ErrorStyleAfter = simweb.Soft200
			}
		}
		// A mass-redirect era precedes the hard failure (§4.2): retired
		// URLs bounced to the homepage until the site restructured.
		if d.RedirHist == HistRedirErr {
			s.ErrorStyle = simweb.SoftRedirectHome
			s.ErrorStyleSwitchAt = d.SiteSwitch
			s.ErrorStyleAfter = simweb.Hard404
		}
		sites[host] = s
	}
	return sites
}

// buildLinkPage realizes one PD link's page lifecycle (and its typo
// sibling, move target, etc.).
func buildLinkPage(pl *Plan, rng *rand.Rand, sites map[string]*simweb.Site, lp *LinkPlan) {
	site := sites[lp.Host]

	if lp.Typo {
		// The posted URL never existed; the *correct* page did.
		if cp := pathOf(lp.CorrectURL); cp != "" {
			pg := site.AddPage(cp, clampDay(lp.PostDay.Add(-(30+rng.Intn(900))), site.Created, lp.PostDay))
			// The correct page usually outlives the study or dies late.
			if rng.Float64() < 0.5 {
				pg.DeletedAt = clampDay(lp.PostDay.Add(400+rng.Intn(1200)), lp.PostDay.Add(30), pl.Params.StudyTime)
			}
		}
		return
	}

	created := lp.PageCreated
	if created.Before(site.Created) {
		created = site.Created
	}
	pg := site.AddPage(lp.Path, created)

	switch {
	case lp.Hist == HistRedirValid:
		pg.MovedAt = lp.MoveDay
		pg.NewPath = newPathFor(rng, lp.Path)
		pg.RedirectFrom = lp.MoveDay
		pg.RedirectUntil = lp.RedirectUntil
		lp.NewPath = pg.NewPath
		site.AddPage(pg.NewPath, lp.MoveDay)
	case lp.Live == Live200Real && lp.ViaRedirect:
		// The page moves at death with no redirect; the mapping is
		// installed after IABot marks the link (planted post-run).
		pg.MovedAt = lp.DeathDay
		pg.NewPath = newPathFor(rng, lp.Path)
		lp.NewPath = pg.NewPath
		site.AddPage(pg.NewPath, lp.DeathDay)
	case lp.Live == Live200Real:
		// Deleted, restored after the mark (planted post-run).
		pg.DeletedAt = lp.DeathDay
	default:
		if lp.DeleteDay.Valid() {
			pg.DeletedAt = lp.DeleteDay
		}
	}
}

// newPathFor derives the post-move path for a page, in the style of
// §3's fishman.com example (/artists/x → /portfolio_page/x/).
func newPathFor(rng *rand.Rand, old string) string {
	base := old
	if i := strings.IndexAny(base, "?#"); i >= 0 {
		base = base[:i]
	}
	seg := base
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		seg = base[i+1:]
	}
	seg = strings.TrimSuffix(seg, ".html")
	prefixes := []string{"/portfolio_page", "/content", "/archive/pages", "/p"}
	return fmt.Sprintf("%s/%s-%d/", prefixes[rng.Intn(len(prefixes))], seg, 10+rng.Intn(9000))
}

func pathOf(url string) string {
	if i := strings.Index(url, "://"); i >= 0 {
		url = url[i+3:]
	}
	if i := strings.IndexByte(url, '/'); i >= 0 {
		return url[i:]
	}
	return ""
}

// plantArchiveState plants everything the archive must hold beyond the
// capture-on-post first captures: pre-posting captures, extra
// captures, sibling redirect captures (§4.2 validation material), typo
// correct-URL captures, bulk coverage regions (Figure 6), and the
// availability latencies that realize §4.1.
func plantArchiveState(pl *Plan, rng *rand.Rand, crawler *Crawler, arch *archive.Archive) {
	for _, lp := range pl.Links {
		if lp.SlowLookup {
			arch.SetLookupLatency(lp.URL, slowLookupLatency(lp.URL))
		}
		// Pre-posting first captures are planted directly: the
		// capture on post cannot see a link before it exists.
		if lp.PrePost && lp.FirstCapture.Valid() {
			crawler.Capture(lp.URL, lp.FirstCapture) //nolint:errcheck
		}
		for _, day := range lp.ExtraCaptures {
			crawler.Capture(lp.URL, day) //nolint:errcheck
		}

		switch lp.Hist {
		case HistRedirValid:
			plantValidSiblings(pl, rng, crawler, lp)
		case HistRedirErr:
			plantErrSiblings(pl, rng, crawler, lp)
		case HistNone:
			plantNoneCoverage(pl, rng, crawler, arch, lp)
		}
	}
	// Background patched links need their usable copy; capture on post
	// plants it (see planDelays), nothing to do here.
}

// plantValidSiblings creates sibling pages that moved around the same
// time with their own distinct targets, and captures them inside their
// redirect windows within ±90 days of the link's capture — the §4.2
// cross-examination material that validates the link's redirect.
func plantValidSiblings(pl *Plan, rng *rand.Rand, crawler *Crawler, lp *LinkPlan) {
	site := crawler.World.Site(lp.Host)
	dir := dirOf(lp.Path)
	n := 2 + rng.Intn(3)
	for i := 0; i < n; i++ {
		path := fmt.Sprintf("%ssibling-%d.html", dir, rng.Intn(1_000_000))
		if site.Page(path) != nil {
			continue
		}
		captureDay := lp.FirstCapture.Add(rng.Intn(121) - 60)
		moveDay := captureDay.Add(-(1 + rng.Intn(90)))
		pg := site.AddPage(path, clampDay(moveDay.Add(-300), site.Created, moveDay))
		pg.MovedAt = moveDay
		pg.NewPath = newPathFor(rng, path)
		pg.RedirectFrom = moveDay
		pg.RedirectUntil = captureDay.Add(1 + rng.Intn(200))
		site.AddPage(pg.NewPath, moveDay)
		crawler.Capture("http://"+lp.Host+path, captureDay) //nolint:errcheck
	}
}

// plantErrSiblings captures other (never-existing) URLs in the same
// directory during the site's soft-redirect era; they all bounce to
// the homepage, condemning the link's own redirect as a mass redirect.
func plantErrSiblings(pl *Plan, rng *rand.Rand, crawler *Crawler, lp *LinkPlan) {
	dir := dirOf(lp.Path)
	for i := 0; i < 2; i++ {
		path := fmt.Sprintf("%sretired-%d.html", dir, rng.Intn(1_000_000))
		captureDay := lp.FirstCapture.Add(rng.Intn(121) - 60)
		// Keep the capture inside the soft era (before the site's
		// switch to hard 404s) so it records the 302.
		d := pl.Domains[pl.domainIndex(lp.Domain)]
		if d.SiteSwitch.Valid() && !captureDay.Before(d.SiteSwitch) {
			captureDay = d.SiteSwitch.Add(-1)
		}
		if captureDay.Before(crawler.World.Site(lp.Host).Created) {
			continue
		}
		crawler.Capture("http://"+lp.Host+path, captureDay) //nolint:errcheck
	}
}

// plantNoneCoverage gives a never-archived link its destined spatial
// surroundings: bulk 200-status coverage in its directory and host
// (Figure 6), and — for typos — captures of the corrected URL that
// §5.2's edit-distance probe will find.
func plantNoneCoverage(pl *Plan, rng *rand.Rand, crawler *Crawler, arch *archive.Archive, lp *LinkPlan) {
	p := pl.Params
	site := crawler.World.Site(lp.Host)
	firstDay := clampDay(site.Created.Add(200), site.Created.Add(1), p.StudyTime.Add(-200))
	lastDay := p.StudyTime.Add(-30)

	dirCount := lp.DirNeighbors
	if lp.Typo && lp.CorrectURL != "" {
		// The corrected URL's captures contribute dir-level coverage.
		pg := site.Page(pathOf(lp.CorrectURL))
		if pg != nil {
			day := clampDay(lp.PostDay.Add(-rng.Intn(300)), pg.Created, lastDay)
			if pg.DeletedAt.Valid() && !day.Before(pg.DeletedAt) {
				day = pg.DeletedAt.Add(-1)
			}
			if snap, err := crawler.Capture(lp.CorrectURL, day); err == nil && snap.InitialStatus == 200 {
				dirCount--
			}
		}
	}
	if dirCount > 0 {
		arch.AddBulkCoverage(archive.BulkRegion{
			Host:      lp.Host,
			DirPrefix: dirOf(lp.Path),
			Count:     dirCount,
			FirstDay:  firstDay,
			LastDay:   lastDay,
			Seed:      hashx.FNV1a(lp.URL) ^ 0xd1d1,
		})
	}
	// §5.2 implication (b): some query-heavy URLs were archived under a
	// permuted parameter order. The server treats both orders as the
	// same page; the archive holds only the permuted spelling, so the
	// posted URL itself shows "no captures" yet is rescuable by
	// canonicalizing the query.
	if lp.QueryStyle && !lp.Typo && lp.DirNeighbors > 0 && hashx.FNV1a(lp.URL)%10 < 4 {
		if perm := permuteQuery(lp.Path); perm != lp.Path && site.Page(perm) == nil {
			pg := site.Page(lp.Path)
			if pg != nil {
				dup := site.AddPage(perm, pg.Created)
				dup.DeletedAt = pg.DeletedAt
				dup.Content = "same-page duplicate" // identical across orders
				pg.Content = dup.Content
				capDay := clampDay(lp.PostDay.Add(-rng.Intn(400)), pg.Created, p.StudyTime.Add(-60))
				if pg.DeletedAt.Valid() && !capDay.Before(pg.DeletedAt) {
					capDay = pg.DeletedAt.Add(-1)
				}
				if !capDay.Before(pg.Created) {
					crawler.Capture("http://"+lp.Host+perm, capDay) //nolint:errcheck
				}
			}
		}
	}

	if extra := lp.HostNeighbors - lp.DirNeighbors; extra > 0 {
		arch.AddBulkCoverage(archive.BulkRegion{
			Host:      lp.Host,
			DirPrefix: "/site-archive/",
			Count:     extra,
			FirstDay:  firstDay,
			LastDay:   lastDay,
			Seed:      hashx.FNV1a(lp.URL) ^ 0x4040,
		})
	}
}

// permuteQuery reverses the order of a path's query parameters,
// producing the alternative spelling a crawler might have archived.
func permuteQuery(pathQuery string) string {
	path, query, ok := strings.Cut(pathQuery, "?")
	if !ok || !strings.Contains(query, "&") {
		return pathQuery
	}
	parts := strings.Split(query, "&")
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	return path + "?" + strings.Join(parts, "&")
}

func dirOf(path string) string {
	if i := strings.IndexAny(path, "?#"); i >= 0 {
		path = path[:i]
	}
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[:i+1]
	}
	return "/"
}
