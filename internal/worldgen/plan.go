package worldgen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"permadead/internal/hashx"
	"permadead/internal/simclock"
)

// LiveOutcome is a PD link's destined state on the live web at study
// time — the Figure 4 category it will land in.
type LiveOutcome uint8

const (
	LiveDNS LiveOutcome = iota
	Live404
	LiveTimeout
	LiveOther
	Live200Real
	Live200Soft
)

func (o LiveOutcome) String() string {
	switch o {
	case LiveDNS:
		return "dns"
	case Live404:
		return "404"
	case LiveTimeout:
		return "timeout"
	case LiveOther:
		return "other"
	case Live200Real:
		return "200-real"
	case Live200Soft:
		return "200-soft"
	default:
		return "?"
	}
}

// SoftKind refines Live200Soft and LiveOther.
type SoftKind uint8

const (
	SoftNone SoftKind = iota
	SoftParked
	SoftRedirectHome
	SoftBoilerplate
	OtherGeoBlocked
	OtherOutage
)

// ArchHist is a PD link's destined archive history class (§4/§5).
type ArchHist uint8

const (
	HistUnassigned ArchHist = iota
	// HistPre200: a 200-status copy existed pre-mark; IABot missed it
	// due to its availability-lookup timeout (§4.1).
	HistPre200
	// HistRedirValid: only 3xx copies pre-mark, with a unique (valid)
	// redirect target (§4.2's rescuable 481).
	HistRedirValid
	// HistRedirErr: only 3xx copies pre-mark, mass redirects (§4.2).
	HistRedirErr
	// HistErrOnly: captures exist but every one is erroneous (§5.1).
	HistErrOnly
	// HistNone: the URL was never archived at all (§5.2).
	HistNone
)

func (h ArchHist) String() string {
	switch h {
	case HistPre200:
		return "pre200"
	case HistRedirValid:
		return "redir-valid"
	case HistRedirErr:
		return "redir-err"
	case HistErrOnly:
		return "err-only"
	case HistNone:
		return "none"
	default:
		return "?"
	}
}

// LinkStyle is how the link is cited in wikitext.
type LinkStyle uint8

const (
	StyleCiteRef  LinkStyle = iota // <ref>{{cite web|url=...}}</ref>
	StyleBareRef                   // <ref>[url title]</ref>
	StyleBodyLink                  // bare link in body text
)

// LinkPlan is the full destined scenario of one permanently-dead link.
type LinkPlan struct {
	URL    string
	Host   string
	Domain string
	Path   string
	Style  LinkStyle

	Article string
	PostDay simclock.Day

	Live LiveOutcome
	Soft SoftKind
	// ViaRedirect (Live200Real): recovery through a redirect (79%)
	// rather than content restoration.
	ViaRedirect bool

	Hist ArchHist
	// PrePost: first capture predates posting (§5.1's 619).
	PrePost bool
	// SameDay: first capture on the posting day (§5.1's 437).
	SameDay bool
	// Typo: the URL never worked (§5.1's 266 + §5.2's 219).
	Typo bool
	// CorrectURL is the working URL the typo'd one derives from.
	CorrectURL string

	// PageCreated is when the underlying page came online (Never for
	// typos — the page never existed).
	PageCreated simclock.Day
	// DeathDay is the first day a GET for the URL stops returning a
	// final 200 — the day IABot can observe it broken. For typos this
	// is PostDay (broken from the start).
	DeathDay simclock.Day
	// MoveDay / NewPath / RedirectUntil script HistRedirValid pages
	// and Live200Real recoveries.
	MoveDay       simclock.Day
	NewPath       string
	RedirectUntil simclock.Day
	// DeleteDay scripts page deletions (HistRedirErr and others).
	DeleteDay simclock.Day

	// FirstCapture is the planned first capture day (Never for
	// HistNone).
	FirstCapture simclock.Day
	// ExtraCaptures are additional pre-mark capture days.
	ExtraCaptures []simclock.Day
	// SlowLookup marks the availability latency above IABot's timeout.
	SlowLookup bool
	// PostMarkCapture schedules one capture after the link is marked.
	PostMarkCapture bool

	// MarkDay is the analytically computed day IABot will mark the
	// link permanently dead (the first scan of its article at or after
	// DeathDay). The timeline run must reproduce it.
	MarkDay simclock.Day

	// DirNeighbors / HostNeighbors are the destined Figure 6 counts
	// for HistNone links.
	DirNeighbors  int
	HostNeighbors int
	// QueryStyle marks query-parameter-heavy URLs (§5.2).
	QueryStyle bool
}

// DomainPlan groups the links of one registrable domain, which share a
// site-level destiny.
type DomainPlan struct {
	Domain string
	Hosts  []string
	Rank   int
	// Created is the site's creation day (before its earliest link).
	Created simclock.Day
	Live    LiveOutcome
	Soft    SoftKind
	// RedirHist is HistRedirValid or HistRedirErr when the whole
	// domain carries redirect history, else HistUnassigned.
	RedirHist ArchHist
	// SiteSwitch is the day a HistRedirErr domain switches from soft
	// redirects to hard 404s (every link's DeathDay).
	SiteSwitch simclock.Day
	// EventDay is when the site-level live-outcome event fires (DNS
	// death, hang, parking, geo-block, outage, soft switch).
	EventDay simclock.Day
	// Links indexes into Plan.Links.
	Links []int
}

// BgKind classifies background links.
type BgKind uint8

const (
	BgHealthy BgKind = iota
	BgPatched
	BgUserMarked
)

// BackgroundLink is a non-PD link that exercises IABot's other paths.
type BackgroundLink struct {
	URL, Host, Domain, Path string
	Article                 string
	Style                   LinkStyle
	PostDay                 simclock.Day
	Kind                    BgKind
	DeathDay                simclock.Day // Never for BgHealthy
	// CaptureDay is the planned 200-status capture (BgPatched).
	CaptureDay simclock.Day
	// UserMarkDay is when a human tags the link (BgUserMarked).
	UserMarkDay simclock.Day
}

// ArticlePlan is one wiki article and the links destined for it.
type ArticlePlan struct {
	Title   string
	Created simclock.Day
	// Links / Background index into Plan.Links / Plan.Background.
	Links      []int
	Background []int
}

// Plan is the complete destined universe, before realization.
type Plan struct {
	Params     Params
	Links      []*LinkPlan
	Domains    []*DomainPlan
	Articles   []*ArticlePlan
	Background []*BackgroundLink
	// BgDomains lists domains hosting only background links.
	BgDomains []*DomainPlan

	domainIdx map[string]int
}

// NewPlan runs the planning phase.
func NewPlan(p Params) *Plan {
	rng := rand.New(rand.NewSource(p.Seed))
	pl := &Plan{Params: p}

	pl.planDomainsAndOutcomes(rng)
	pl.planHistories(rng)
	pl.planTemporal(rng)
	pl.planSpatial(rng)
	pl.planURLs(rng)
	pl.planArticles(rng)
	pl.planTimelines(rng)
	pl.planBackground(rng)
	return pl
}

// popQuota scales a per-10k quota to the generated population.
func (pl *Plan) popQuota(q int) int {
	f := pl.Params.PopulationFactor
	if f < 1 {
		f = 1
	}
	return int(float64(q)*f + 0.5)
}

// planDomainsAndOutcomes draws domain sizes, assigns each domain a
// live outcome from the Figure 4 quotas, and creates the link stubs.
func (pl *Plan) planDomainsAndOutcomes(rng *rand.Rand) {
	popN := pl.Params.PopulationSize()

	// Domain size distribution (§2.4: >70% of domains contribute one
	// URL; a few contribute over 100).
	drawSize := func() int {
		v := rng.Float64()
		switch {
		case v < 0.705:
			return 1
		case v < 0.865:
			return 2
		case v < 0.935:
			return 3
		case v < 0.970:
			return 4 + rng.Intn(5) // 4–8
		case v < 0.988:
			return 9 + rng.Intn(17) // 9–25
		case v < 0.996:
			return 26 + rng.Intn(55) // 26–80
		case v < 0.999:
			return 81 + rng.Intn(170) // 81–250
		default:
			return 251 + rng.Intn(200) // 251–450
		}
	}

	var sizes []int
	total := 0
	for total < popN {
		s := drawSize()
		if total+s > popN {
			s = popN - total
		}
		sizes = append(sizes, s)
		total += s
	}
	// Assign outcomes largest-domain-first so big quotas absorb big
	// domains and the final counts land near the calibration.
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))

	remaining := map[LiveOutcome]int{
		LiveDNS:     pl.popQuota(pl.Params.QuotaDNS),
		Live404:     pl.popQuota(pl.Params.Quota404),
		LiveTimeout: pl.popQuota(pl.Params.QuotaTimeout),
		LiveOther:   pl.popQuota(pl.Params.QuotaOther),
		Live200Real: pl.popQuota(pl.Params.Quota200Real),
		Live200Soft: pl.popQuota(pl.Params.Quota200Soft),
	}

	takenDomains := make(map[string]bool)
	for _, size := range sizes {
		// Pick the outcome with the most remaining quota, randomized
		// among near-ties so outcome classes interleave across sizes.
		var best LiveOutcome
		bestRem := -1 << 62
		for _, o := range []LiveOutcome{LiveDNS, Live404, LiveTimeout, LiveOther, Live200Real, Live200Soft} {
			r := remaining[o] + rng.Intn(50) // jitter breaks ties
			if r > bestRem {
				best, bestRem = o, r
			}
		}
		remaining[best] -= size

		d := &DomainPlan{
			Domain: domainName(rng, takenDomains),
			Live:   best,
			Rank:   1 + int(float64(999_998)*math.Pow(rng.Float64(), 1.5)),
		}
		d.Soft = softKindFor(rng, best)
		d.Hosts = []string{hostFor(rng, d.Domain, false)}
		// ~12% of multi-link domains get a second hostname (§2.4:
		// 3,940 hostnames over 3,521 domains).
		if size > 1 && rng.Float64() < 0.25 {
			d.Hosts = append(d.Hosts, hostFor(rng, d.Domain, true))
		}
		for i := 0; i < size; i++ {
			lp := &LinkPlan{
				Domain: d.Domain,
				Host:   d.Hosts[rng.Intn(len(d.Hosts))],
				Live:   best,
				Soft:   d.Soft,
			}
			if best == Live200Real {
				lp.ViaRedirect = rng.Float64() < pl.Params.FracRealViaRedirect
			}
			d.Links = append(d.Links, len(pl.Links))
			pl.Links = append(pl.Links, lp)
		}
		pl.Domains = append(pl.Domains, d)
	}
}

func softKindFor(rng *rand.Rand, o LiveOutcome) SoftKind {
	switch o {
	case Live200Soft:
		v := rng.Float64()
		switch {
		case v < 0.35:
			return SoftParked
		case v < 0.70:
			return SoftRedirectHome
		default:
			return SoftBoilerplate
		}
	case LiveOther:
		if rng.Float64() < 0.6 {
			return OtherGeoBlocked
		}
		return OtherOutage
	default:
		return SoftNone
	}
}

// planHistories assigns §4 archive-history classes: redirect histories
// at domain granularity (they are site-level mechanisms), the rest per
// link.
func (pl *Plan) planHistories(rng *rand.Rand) {
	remValid := pl.popQuota(pl.Params.QuotaHistRedirValid)
	remErr := pl.popQuota(pl.Params.QuotaHistRedirErr)

	// Candidate domains for redirect history: hard-failing outcomes
	// only (a works-now or soft-200 site cannot also carry the
	// soft-then-hard mechanics, see DESIGN.md).
	candidates := make([]int, 0, len(pl.Domains))
	for i, d := range pl.Domains {
		switch d.Live {
		case LiveDNS, Live404, LiveTimeout, LiveOther:
			candidates = append(candidates, i)
		}
	}
	rng.Shuffle(len(candidates), func(i, j int) {
		candidates[i], candidates[j] = candidates[j], candidates[i]
	})
	for _, di := range candidates {
		d := pl.Domains[di]
		size := len(d.Links)
		switch {
		case remErr >= size && (remErr >= remValid*4 || remValid < size):
			d.RedirHist = HistRedirErr
			remErr -= size
		case remValid >= size:
			d.RedirHist = HistRedirValid
			remValid -= size
		case remErr >= size:
			d.RedirHist = HistRedirErr
			remErr -= size
		default:
			continue
		}
		for _, li := range d.Links {
			pl.Links[li].Hist = d.RedirHist
		}
		if remValid <= 0 && remErr <= 0 {
			break
		}
	}

	// Remaining links: pre200 / err-only / none, drawn per link by
	// remaining quota weight.
	rem := map[ArchHist]int{
		HistPre200:  pl.popQuota(pl.Params.QuotaHistPre200),
		HistErrOnly: pl.popQuota(pl.Params.QuotaHistErrOnly),
		HistNone:    pl.popQuota(pl.Params.QuotaHistNone),
	}
	for _, lp := range pl.Links {
		if lp.Hist != HistUnassigned {
			continue
		}
		total := rem[HistPre200] + rem[HistErrOnly] + rem[HistNone]
		if total <= 0 {
			lp.Hist = HistErrOnly
			continue
		}
		v := rng.Intn(total)
		switch {
		case v < rem[HistPre200]:
			lp.Hist = HistPre200
		case v < rem[HistPre200]+rem[HistErrOnly]:
			lp.Hist = HistErrOnly
		default:
			lp.Hist = HistNone
		}
		rem[lp.Hist]--
	}
}

// planTemporal assigns the §5.1 flags: pre-posting copies, same-day
// captures, and typos, plus each link's posting day.
func (pl *Plan) planTemporal(rng *rand.Rand) {
	// Posting days first: the year CDF reproducing Figure 3(c)
	// (40% after 2015, 20% after 2017). Posts are clamped so a scan
	// (and, for works-now links, a recovery) fits before the study.
	for _, lp := range pl.Links {
		lp.PostDay = samplePostDay(rng)
		lastPost := pl.Params.LastDeath.Add(-60)
		if lp.Live == Live200Real {
			lastPost = simclock.FromDate(2021, 1, 1)
		}
		if lp.PostDay.After(lastPost) {
			lp.PostDay = lastPost.Add(-rng.Intn(300))
		}
	}

	// Pre-posting copies (619) are realized from the redirect-history
	// buckets: the page moved (or soft-died) before the user posted
	// the link, and a capture recorded the 3xx state before posting.
	redirIdx := pl.linksWhere(func(lp *LinkPlan) bool {
		return lp.Hist == HistRedirValid || lp.Hist == HistRedirErr
	})
	rng.Shuffle(len(redirIdx), func(i, j int) { redirIdx[i], redirIdx[j] = redirIdx[j], redirIdx[i] })
	prePost := pl.popQuota(pl.Params.QuotaPrePostCopies)
	for _, li := range redirIdx {
		if prePost <= 0 {
			break
		}
		pl.Links[li].PrePost = true
		prePost--
	}

	// Same-day captures: 266 typos (err-only links that never worked)
	// plus 171 redirect-history links captured on posting day.
	sameDayTypo := pl.popQuota(pl.Params.QuotaSameDayTypo)
	errIdx := pl.linksWhere(func(lp *LinkPlan) bool {
		return lp.Hist == HistErrOnly && lp.Live != Live200Real
	})
	rng.Shuffle(len(errIdx), func(i, j int) { errIdx[i], errIdx[j] = errIdx[j], errIdx[i] })
	for _, li := range errIdx {
		if sameDayTypo <= 0 {
			break
		}
		lp := pl.Links[li]
		lp.SameDay = true
		lp.Typo = true
		sameDayTypo--
	}
	// The non-typo same-day captures must be non-erroneous "even first
	// up" (§5.1 implies only 266 of 437 were erroneous), so they are
	// drawn from valid-redirect links — a same-day 301 to a unique
	// target is a usable-looking copy; a same-day mass redirect would
	// count as erroneous and inflate the typo-like group.
	sameDayRedir := pl.popQuota(pl.Params.QuotaSameDay) - pl.popQuota(pl.Params.QuotaSameDayTypo)
	for _, pass := range []ArchHist{HistRedirValid, HistRedirErr} {
		for _, li := range redirIdx {
			if sameDayRedir <= 0 {
				break
			}
			lp := pl.Links[li]
			if lp.Hist != pass || lp.PrePost || lp.SameDay {
				continue
			}
			lp.SameDay = true
			sameDayRedir--
		}
	}
}

// planSpatial assigns §5.2 structure to the never-archived links:
// zero-coverage quotas, typos with a unique edit-distance-1 archived
// sibling, query-heavy URLs, and Figure 6 neighbour counts.
func (pl *Plan) planSpatial(rng *rand.Rand) {
	noneIdx := pl.linksWhere(func(lp *LinkPlan) bool { return lp.Hist == HistNone })
	rng.Shuffle(len(noneIdx), func(i, j int) { noneIdx[i], noneIdx[j] = noneIdx[j], noneIdx[i] })

	// Zero-hostname-coverage links need their whole host archive-free,
	// which only works when every PD link on the host is itself in the
	// never-archived class; zero-directory-coverage only needs the
	// link's own directory clean, and generated paths make directories
	// effectively unique per link.
	cleanHost := make(map[string]bool)
	for _, d := range pl.Domains {
		for _, host := range d.Hosts {
			cleanHost[host] = true
		}
	}
	for _, lp := range pl.Links {
		if lp.Hist != HistNone {
			cleanHost[lp.Host] = false
		}
	}

	zeroHost := pl.popQuota(pl.Params.QuotaNoneZeroHost)
	zeroDirOnly := pl.popQuota(pl.Params.QuotaNoneZeroDir) - zeroHost

	// Pick whole hosts for zero coverage first: every none link on a
	// chosen host goes to zero, keeping the hostname consistent.
	zeroHostSel := make(map[string]bool)
	for _, li := range noneIdx {
		if zeroHost <= 0 {
			break
		}
		host := pl.Links[li].Host
		if !cleanHost[host] || zeroHostSel[host] {
			continue
		}
		n := 0
		for _, lj := range noneIdx {
			if pl.Links[lj].Host == host {
				n++
			}
		}
		zeroHostSel[host] = true
		zeroHost -= n
	}

	var rest []int
	for _, li := range noneIdx {
		lp := pl.Links[li]
		switch {
		case zeroHostSel[lp.Host]:
			lp.DirNeighbors, lp.HostNeighbors = 0, 0
		case zeroDirOnly > 0:
			lp.DirNeighbors = 0
			lp.HostNeighbors = 1 + logUniform(rng, pl.Params.NeighborCapHost)
			zeroDirOnly--
		default:
			rest = append(rest, li)
		}
	}

	// Typos among the remaining never-archived links: the corrected
	// URL is archived, giving a dir-level neighbour and the unique
	// edit-distance-1 match.
	typos := pl.popQuota(pl.Params.QuotaNoneTypo)
	var rest2 []int
	for _, li := range rest {
		lp := pl.Links[li]
		if typos > 0 && lp.Live != Live200Real {
			lp.Typo = true
			typos--
		} else {
			rest2 = append(rest2, li)
		}
		lp.DirNeighbors = 1 + logUniform(rng, pl.Params.NeighborCapDir)
		lp.HostNeighbors = lp.DirNeighbors + logUniform(rng, pl.Params.NeighborCapHost-lp.DirNeighbors)
	}

	// Query-style URLs among non-typo never-archived links.
	for _, li := range rest2 {
		if rng.Float64() < pl.Params.FracQueryStyle {
			pl.Links[li].QueryStyle = true
		}
	}
}

// planURLs generates the concrete URL of every link (after spatial
// planning, which decides query styles and typos).
func (pl *Plan) planURLs(rng *rand.Rand) {
	takenPaths := make(map[string]bool)
	for _, lp := range pl.Links {
		year := lp.PostDay.Year() - rng.Intn(3)
		for {
			var path string
			if lp.QueryStyle {
				path = queryPath(rng, year)
			} else {
				path = articlePath(rng, 1+rng.Intn(3), year)
			}
			if takenPaths[lp.Host+path] {
				continue
			}
			takenPaths[lp.Host+path] = true
			lp.Path = path
			break
		}
		scheme := "http"
		if rng.Float64() < 0.35 {
			scheme = "https"
		}
		lp.URL = scheme + "://" + lp.Host + lp.Path
		if lp.Typo {
			// The posted URL is a one-edit corruption of the real
			// page's URL; the real one is what actually exists (and,
			// for HistNone typos, what got archived).
			lp.CorrectURL = lp.URL
			for {
				t := typoURL(rng, lp.CorrectURL)
				if t != lp.CorrectURL && !takenPaths[hostPathOf(t)] {
					takenPaths[hostPathOf(t)] = true
					lp.URL = t
					break
				}
			}
		}
		switch {
		case rng.Float64() < 0.60:
			lp.Style = StyleCiteRef
		case rng.Float64() < 0.70:
			lp.Style = StyleBareRef
		default:
			lp.Style = StyleBodyLink
		}
	}
}

func hostPathOf(url string) string {
	// Key URLs by host+path for uniqueness tracking.
	if i := strings.Index(url, "://"); i >= 0 {
		return url[i+3:]
	}
	return url
}

// planArticles groups PD links into articles (§2.4: ~1.45 links per
// article in our population) and stamps each link with its article.
func (pl *Plan) planArticles(rng *rand.Rand) {
	order := rng.Perm(len(pl.Links))
	takenTitles := make(map[string]bool)
	i := 0
	for i < len(order) {
		k := 1
		v := rng.Float64()
		switch {
		case v < 0.68:
			k = 1
		case v < 0.90:
			k = 2
		case v < 0.98:
			k = 3
		default:
			k = 4
		}
		if i+k > len(order) {
			k = len(order) - i
		}
		ap := &ArticlePlan{Title: articleTitle(rng, takenTitles)}
		created := simclock.Day(1 << 30)
		for j := 0; j < k; j++ {
			li := order[i+j]
			ap.Links = append(ap.Links, li)
			pl.Links[li].Article = ap.Title
			if pl.Links[li].PostDay < created {
				created = pl.Links[li].PostDay
			}
		}
		ap.Created = created
		pl.Articles = append(pl.Articles, ap)
		i += k
	}
}

// planTimelines computes, for every link, the lifecycle days (death,
// move/delete/switch, captures) and the analytic mark day.
func (pl *Plan) planTimelines(rng *rand.Rand) {
	p := pl.Params

	// Redirect-err domains share one soft→hard switch day; pick it per
	// domain after knowing the latest relevant link capture. Pass 1:
	// per-link scaffolding.
	for _, lp := range pl.Links {
		pl.planLinkTimeline(rng, lp)
	}

	// Pass 2: per-domain switch day for redirect-err domains — every
	// link must have captured before the switch; the switch is the
	// shared death day.
	for _, d := range pl.Domains {
		if d.RedirHist != HistRedirErr {
			continue
		}
		latest := simclock.Day(0)
		for _, li := range d.Links {
			lp := pl.Links[li]
			if lp.FirstCapture.After(latest) {
				latest = lp.FirstCapture
			}
			for _, e := range lp.ExtraCaptures {
				if e.After(latest) {
					latest = e
				}
			}
		}
		sw := latest.Add(30 + rng.Intn(360))
		if sw.After(p.LastDeath) {
			sw = p.LastDeath
		}
		if !sw.After(latest) {
			sw = latest.Add(1)
		}
		d.SiteSwitch = sw
		for _, li := range d.Links {
			pl.Links[li].DeathDay = sw
		}
	}

	// Pass 3: mark days (now that every death day is final) and the
	// site-level event day.
	for _, lp := range pl.Links {
		lp.MarkDay = firstScanAfter(p, lp.Article, lp.PostDay, lp.DeathDay)
	}
	for _, d := range pl.Domains {
		pl.planDomainEvent(rng, d)
	}
}

// planLinkTimeline scripts one link's page lifecycle and captures.
func (pl *Plan) planLinkTimeline(rng *rand.Rand, lp *LinkPlan) {
	p := pl.Params
	post := lp.PostDay
	lastDeath := p.LastDeath
	if lp.Live == Live200Real {
		// Leave room for mark + recovery before the study.
		lastDeath = simclock.FromDate(2021, 3, 1)
	}
	lp.PageCreated = clampDay(post.Add(-(30 + rng.Intn(1400))), 0, post.Add(-1))

	switch lp.Hist {
	case HistPre200:
		// Early 200 capture while alive, then death well afterwards.
		lp.FirstCapture = post.Add(rng.Intn(90))
		lp.SlowLookup = true
		lp.DeathDay = clampDay(lp.FirstCapture.Add(180+rng.Intn(1500)), lp.FirstCapture.Add(30), lastDeath)
		if rng.Float64() < 0.4 {
			// A second 200 capture before death.
			extra := lp.FirstCapture.Add(1 + rng.Intn(max(1, lp.DeathDay.Sub(lp.FirstCapture)-1)))
			lp.ExtraCaptures = append(lp.ExtraCaptures, extra)
		}
		lp.DeleteDay = lp.DeathDay

	case HistRedirValid:
		// Move with an immediate redirect; capture lands inside the
		// redirect window; the window's end is the death day.
		switch {
		case lp.PrePost:
			lp.FirstCapture = clampDay(post.Add(-(30 + rng.Intn(900))), 2, post.Add(-1))
			lp.MoveDay = clampDay(lp.FirstCapture.Add(-(1 + rng.Intn(300))), 1, lp.FirstCapture.Add(-1))
		case lp.SameDay:
			lp.FirstCapture = post
			lp.MoveDay = clampDay(post.Add(-(1 + rng.Intn(300))), 1, post.Add(-1))
		default:
			gap := sampleGapDays(rng)
			lp.FirstCapture = clampDay(post.Add(gap), post.Add(2), lastDeath.Add(-45))
			lp.MoveDay = lp.FirstCapture.Add(-rng.Intn(200))
			if lp.MoveDay.Before(lp.PageCreated.Add(1)) {
				lp.MoveDay = lp.PageCreated.Add(1)
			}
		}
		if lp.PageCreated.After(lp.MoveDay.Add(-1)) {
			lp.PageCreated = clampDay(lp.MoveDay.Add(-(30 + rng.Intn(300))), 0, lp.MoveDay.Add(-1))
		}
		lp.RedirectUntil = clampDay(lp.FirstCapture.Add(30+rng.Intn(700)), lp.FirstCapture.Add(1), lastDeath)
		lp.DeathDay = lp.RedirectUntil

	case HistRedirErr:
		// Soft-redirect captures of a deleted page; the shared site
		// switch day (pass 2) finalizes DeathDay.
		switch {
		case lp.PrePost:
			lp.FirstCapture = clampDay(post.Add(-(30 + rng.Intn(900))), 2, post.Add(-1))
			lp.DeleteDay = clampDay(lp.FirstCapture.Add(-(1 + rng.Intn(300))), 1, lp.FirstCapture.Add(-1))
		case lp.SameDay:
			lp.FirstCapture = post
			lp.DeleteDay = clampDay(post.Add(-(1 + rng.Intn(300))), 1, post.Add(-1))
		default:
			gap := sampleGapDays(rng)
			lp.FirstCapture = clampDay(post.Add(gap), post.Add(2), p.LastDeath.Add(-45))
			lp.DeleteDay = post.Add(1 + rng.Intn(max(1, lp.FirstCapture.Sub(post)-1)))
		}
		if lp.PageCreated.After(lp.DeleteDay.Add(-1)) {
			lp.PageCreated = clampDay(lp.DeleteDay.Add(-(30 + rng.Intn(300))), 0, lp.DeleteDay.Add(-1))
		}
		lp.DeathDay = p.LastDeath // provisional; pass 2 overwrites

	case HistErrOnly:
		if lp.Typo {
			// Never worked: broken from the posting day; captured the
			// same day by the on-post service, recording the error.
			lp.FirstCapture = post
			lp.DeathDay = post
			lp.PageCreated = simclock.Never
		} else {
			gap := max(2, sampleGapDays(rng))
			lp.FirstCapture = clampDay(post.Add(gap), post.Add(2), p.StudyTime.Add(-30))
			// The page died somewhere between posting and the first
			// capture, so the capture is erroneous.
			span := max(1, lp.FirstCapture.Sub(post)-1)
			lp.DeathDay = clampDay(post.Add(1+rng.Intn(span)), post.Add(1), lastDeath)
			lp.DeleteDay = lp.DeathDay
			if rng.Float64() < 0.3 {
				lp.ExtraCaptures = append(lp.ExtraCaptures,
					clampDay(lp.FirstCapture.Add(30+rng.Intn(400)), lp.FirstCapture.Add(1), p.StudyTime.Add(-10)))
			}
		}

	case HistNone:
		lp.FirstCapture = simclock.Never
		if lp.Typo {
			lp.DeathDay = post
			lp.PageCreated = simclock.Never
		} else {
			lp.DeathDay = clampDay(post.Add(90+rng.Intn(1300)), post.Add(1), lastDeath)
			lp.DeleteDay = lp.DeathDay
		}
	}

	// Clamp any death beyond the allowed horizon.
	if lp.DeathDay.After(lastDeath) && lp.Hist != HistRedirErr {
		lp.DeathDay = lastDeath
		if lp.DeleteDay.Valid() && lp.DeleteDay.After(lastDeath) {
			lp.DeleteDay = lastDeath
		}
	}
	if lp.Hist != HistNone && rng.Float64() < pl.Params.FracPostMarkCapture {
		lp.PostMarkCapture = true
	}
}

// planDomainEvent fixes the site-level event day: it must come after
// every planned capture and, for outcomes that answer 200, after every
// mark (else IABot would see the link alive and never mark it).
func (pl *Plan) planDomainEvent(rng *rand.Rand, d *DomainPlan) {
	p := pl.Params
	floor := simclock.Day(0)
	created := simclock.Day(1 << 30)
	needPostMark := d.Live == Live200Soft
	for _, li := range d.Links {
		lp := pl.Links[li]
		if lp.DeathDay.Valid() && lp.DeathDay.After(floor) {
			floor = lp.DeathDay
		}
		if lp.FirstCapture.Valid() && lp.FirstCapture.After(floor) {
			floor = lp.FirstCapture
		}
		for _, e := range lp.ExtraCaptures {
			if e.After(floor) {
				floor = e
			}
		}
		if needPostMark && lp.MarkDay.Valid() && lp.MarkDay.After(floor) {
			floor = lp.MarkDay
		}
		if c := lp.PageCreated.Add(-900); c.Valid() && c.Before(created) {
			created = c
		}
		if lp.PostDay.Add(-900).Before(created) {
			created = lp.PostDay.Add(-900)
		}
	}
	if created < 0 {
		created = 0
	}
	d.Created = created

	// Sibling captures (§4.2 validation material) land up to 60 days
	// after a link's own capture; the site event must not cut them off.
	if d.RedirHist != HistUnassigned {
		floor = floor.Add(61)
	}

	span := p.StudyTime.Sub(floor) - 10
	if span < 2 {
		span = 2
	}
	switch d.Live {
	case LiveDNS, LiveTimeout, LiveOther:
		// ~half of these events leave room for a post-mark capture
		// before the site stops answering (feeding §3's 95% stat).
		if rng.Float64() < 0.5 {
			d.EventDay = floor.Add(320 + rng.Intn(max(1, span-320)))
		} else {
			d.EventDay = floor.Add(1 + rng.Intn(span))
		}
		if d.EventDay.After(p.StudyTime.Add(-5)) {
			d.EventDay = p.StudyTime.Add(-5)
		}
	case Live200Soft:
		d.EventDay = clampDay(floor.Add(1+rng.Intn(span)), floor.Add(1), p.StudyTime.Add(-5))
	default:
		d.EventDay = simclock.Never
	}
}

// planBackground creates the healthy / patched / user-marked filler
// links and allocates them to articles (half onto existing PD
// articles, half onto new background-only articles).
func (pl *Plan) planBackground(rng *rand.Rand) {
	p := pl.Params
	takenDomains := make(map[string]bool)
	for _, d := range pl.Domains {
		takenDomains[d.Domain] = true
	}
	takenTitles := make(map[string]bool)
	for _, a := range pl.Articles {
		takenTitles[a.Title] = true
	}
	takenPaths := make(map[string]bool)

	mk := func(kind BgKind) *BackgroundLink {
		domain := domainName(rng, takenDomains)
		host := hostFor(rng, domain, false)
		var path string
		for {
			path = articlePath(rng, 1+rng.Intn(2), 2005+rng.Intn(15))
			if !takenPaths[host+path] {
				takenPaths[host+path] = true
				break
			}
		}
		bg := &BackgroundLink{
			URL: "http://" + host + path, Host: host, Domain: domain, Path: path,
			Style:    LinkStyle(rng.Intn(3)),
			PostDay:  samplePostDay(rng),
			Kind:     kind,
			DeathDay: simclock.Never,
		}
		switch kind {
		case BgPatched:
			bg.DeathDay = clampDay(bg.PostDay.Add(200+rng.Intn(1500)),
				simclock.FromDate(2016, 6, 1), p.LastDeath)
			bg.CaptureDay = bg.PostDay.Add(rng.Intn(60))
		case BgUserMarked:
			bg.DeathDay = clampDay(bg.PostDay.Add(200+rng.Intn(1500)),
				bg.PostDay.Add(30), p.LastDeath)
			bg.UserMarkDay = bg.DeathDay.Add(1)
		}
		pl.Background = append(pl.Background, bg)

		dp := &DomainPlan{
			Domain: domain, Hosts: []string{host},
			Rank:    1 + rng.Intn(1_000_000),
			Created: bg.PostDay.Add(-(100 + rng.Intn(2000))),
			Live:    Live404,
		}
		if dp.Created < 0 {
			dp.Created = 0
		}
		pl.BgDomains = append(pl.BgDomains, dp)
		return bg
	}

	total := p.BackgroundHealthy + p.BackgroundPatched + p.UserMarkedDead
	for i := 0; i < total; i++ {
		kind := BgHealthy
		switch {
		case i < p.BackgroundPatched:
			kind = BgPatched
		case i < p.BackgroundPatched+p.UserMarkedDead:
			kind = BgUserMarked
		}
		bg := mk(kind)
		bgIdx := len(pl.Background) - 1
		if rng.Float64() < 0.5 && len(pl.Articles) > 0 {
			// Attach to an existing PD article.
			ap := pl.Articles[rng.Intn(len(pl.Articles))]
			ap.Background = append(ap.Background, bgIdx)
			bg.Article = ap.Title
			if bg.PostDay.Before(ap.Created) {
				ap.Created = bg.PostDay
			}
		} else {
			ap := &ArticlePlan{
				Title:      articleTitle(rng, takenTitles),
				Created:    bg.PostDay,
				Background: []int{bgIdx},
			}
			bg.Article = ap.Title
			pl.Articles = append(pl.Articles, ap)
		}
	}
}

// --- helpers ---

func (pl *Plan) linksWhere(f func(*LinkPlan) bool) []int {
	var out []int
	for i, lp := range pl.Links {
		if f(lp) {
			out = append(out, i)
		}
	}
	return out
}

func (pl *Plan) domainIndex(domain string) int {
	if pl.domainIdx == nil {
		pl.domainIdx = make(map[string]int, len(pl.Domains))
		for i, d := range pl.Domains {
			pl.domainIdx[d.Domain] = i
		}
	}
	i, ok := pl.domainIdx[domain]
	if !ok {
		panic(fmt.Sprintf("worldgen: unknown domain %q", domain))
	}
	return i
}

// samplePostDay draws a posting day matching Figure 3(c)'s year CDF.
func samplePostDay(rng *rand.Rand) simclock.Day {
	// Cumulative share of links posted by end of each year.
	years := []struct {
		year int
		cdf  float64
	}{
		{2007, 0.04}, {2008, 0.09}, {2009, 0.15}, {2010, 0.22},
		{2011, 0.29}, {2012, 0.36}, {2013, 0.44}, {2014, 0.52},
		{2015, 0.60}, {2016, 0.69}, {2017, 0.80}, {2018, 0.87},
		{2019, 0.92}, {2020, 0.96}, {2021, 1.00},
	}
	v := rng.Float64()
	year := years[len(years)-1].year
	for _, y := range years {
		if v <= y.cdf {
			year = y.year
			break
		}
	}
	day := simclock.FromDate(year, 1, 1).Add(rng.Intn(365))
	return day
}

// sampleGapDays draws the §5.1 posting→first-capture gap (Figure 5's
// log-x CDF: ~7% within a day, roughly half beyond six months, a tail
// out to ten years).
func sampleGapDays(rng *rand.Rand) int {
	v := rng.Float64()
	switch {
	case v < 0.07:
		return rng.Intn(2) // same or next day
	case v < 0.14:
		return 2 + rng.Intn(5) // within a week
	case v < 0.25:
		return 7 + rng.Intn(23) // within a month
	case v < 0.35:
		return 30 + rng.Intn(60) // within three months
	case v < 0.45:
		return 90 + rng.Intn(90) // within six months
	case v < 0.58:
		return 180 + rng.Intn(185) // within a year
	case v < 0.75:
		return 365 + rng.Intn(365) // within two years
	case v < 0.92:
		return 730 + rng.Intn(1095) // within five years
	default:
		return 1825 + rng.Intn(1825) // five to ten years
	}
}

// logUniform draws an integer in [0, cap] with log-uniform mass over
// [1, cap] and a small point mass at the low end.
func logUniform(rng *rand.Rand, cap int) int {
	if cap < 1 {
		return 0
	}
	if cap == 1 {
		return 1
	}
	// exp(U * ln(cap)) spreads mass evenly per decade.
	v := rng.Float64()
	x := int(math.Pow(float64(cap), v))
	if x > cap {
		x = cap
	}
	return x
}

// firstScanAfter computes the deterministic day IABot first scans the
// article at or after `from` (and not before the article exists).
func firstScanAfter(p Params, title string, created, from simclock.Day) simclock.Day {
	interval := p.ScanIntervalDays
	if interval <= 0 {
		interval = 150
	}
	offset := int(hashx.FNV1a(title) % uint64(interval))
	first := p.IABotStart.Add(offset)
	lo := from
	if created.After(lo) {
		lo = created
	}
	if lo.Before(first) {
		return first
	}
	k := (lo.Sub(first) + interval - 1) / interval
	scan := first.Add(k * interval)
	if scan.After(p.StudyTime) {
		return simclock.Never
	}
	return scan
}

// ScanDays returns the article's full IABot scan schedule.
func ScanDays(p Params, title string, created simclock.Day) []simclock.Day {
	interval := p.ScanIntervalDays
	if interval <= 0 {
		interval = 150
	}
	offset := int(hashx.FNV1a(title) % uint64(interval))
	var out []simclock.Day
	for d := p.IABotStart.Add(offset); !d.After(p.StudyTime); d = d.Add(interval) {
		if !d.Before(created) {
			out = append(out, d)
		}
	}
	return out
}

func clampDay(d, lo, hi simclock.Day) simclock.Day {
	if d.Before(lo) {
		return lo
	}
	if hi.Valid() && d.After(hi) {
		return hi
	}
	return d
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
