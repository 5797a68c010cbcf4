// Package simweb implements the synthetic live web the reproduction
// measures instead of the real one. A World holds sites and pages with
// explicit lifecycle events (creation, deletion, moves, redirects,
// domain parking, DNS expiry, outages, geo-blocking), and can answer
// the question the paper's crawler asks: "what happens if I issue an
// HTTP GET for this URL on this day?"
//
// The world is reachable through two paths that share the same response
// state machine:
//
//   - Transport: an in-process http.RoundTripper that synthesizes
//     http.Responses (and DNS/timeout errors) without touching the
//     network. The 10,000-link study and the benchmarks use this path;
//     it still exercises the real net/http client redirect machinery.
//   - Server: a real HTTP(S) server bound to the loopback interface
//     together with a dialer that maps every simulated hostname to it,
//     used by integration tests and the simwebd command.
//
// All behaviour is deterministic given the world's contents.
package simweb

import (
	"strings"

	"permadead/internal/simclock"
)

// ErrorStyle is a site's behaviour when a request names a path that
// does not exist (or no longer exists). The styles correspond to the
// failure modes §3 of the paper observes in the wild.
type ErrorStyle uint8

const (
	// Hard404 returns a plain 404 with a site-specific error body.
	Hard404 ErrorStyle = iota
	// SoftRedirectHome redirects every missing path to the homepage,
	// which answers 200 — the canonical soft-404 (e.g. a news site
	// redirecting retired article URLs to its front page).
	SoftRedirectHome
	// Soft200 answers 200 directly with a "not found" boilerplate body
	// that is identical for every missing path.
	Soft200
	// LoginRedirect redirects missing (or protected) paths to the
	// site's login page. The soft-404 detector must NOT conclude from
	// a shared redirect target that the page is dead when the target
	// is a login page (§3).
	LoginRedirect
)

func (e ErrorStyle) String() string {
	switch e {
	case Hard404:
		return "hard404"
	case SoftRedirectHome:
		return "soft-redirect-home"
	case Soft200:
		return "soft200"
	case LoginRedirect:
		return "login-redirect"
	default:
		return "unknown"
	}
}

// Site is one simulated host. The zero value of each lifecycle field is
// not meaningful; use simclock.Never for events that do not occur.
type Site struct {
	// Hostname is the full host (e.g. "www.example.simnews").
	Hostname string
	// Rank is the site's Alexa-style popularity rank (1 = most
	// popular). Used only by the Figure 3(b) analysis.
	Rank int
	// Created is the day the site came online. Requests before this
	// day (or for unknown hostnames) fail DNS resolution.
	Created simclock.Day
	// DNSDiesAt is the day the site's DNS registration lapses;
	// requests from this day on fail DNS resolution.
	DNSDiesAt simclock.Day
	// TimeoutFrom is the day the site's server becomes unreachable
	// (still in DNS, but connections hang).
	TimeoutFrom simclock.Day
	// ParkedAt is the day a domain parker takes over: every path
	// answers 200 with the same parked-domain boilerplate.
	ParkedAt simclock.Day
	// GeoBlockedFrom is the day the site starts answering 403 to our
	// measurement vantage point.
	GeoBlockedFrom simclock.Day
	// OutageFrom/OutageTo delimit a window during which the site
	// answers 503 Service Unavailable.
	OutageFrom, OutageTo simclock.Day
	// ErrorStyle governs responses for missing paths.
	ErrorStyle ErrorStyle
	// ErrorStyleSwitchAt, when valid, switches the site's missing-path
	// behaviour to ErrorStyleAfter from that day on. This models sites
	// that, say, redirected retired URLs to the homepage for a few
	// years and then switched to plain 404s — the reason archived 3xx
	// copies exist for links that hard-fail today (§4.2).
	ErrorStyleSwitchAt simclock.Day
	ErrorStyleAfter    ErrorStyle
	// LoginPath is the target of LoginRedirect sites (default
	// "/login" when empty).
	LoginPath string
	// Seed perturbs generated page content so distinct sites do not
	// share bodies.
	Seed uint64
	// Faults are the site's transient-fault windows (see fault.go).
	// Empty for healthy sites; worldgen populates them only when fault
	// injection is enabled.
	Faults []FaultWindow

	// pages maps path?query → page. Guarded by the World lock.
	pages map[string]*Page
}

// Page is one simulated resource on a site, identified by its full
// path-plus-query string.
type Page struct {
	// Path is the path plus optional query, e.g. "/a/b.html?id=3".
	Path string
	// Created is the day the page first became reachable. A page
	// requested before its creation gets the site's error behaviour.
	Created simclock.Day
	// DeletedAt is the day the page was removed (error behaviour from
	// then on), or simclock.Never.
	DeletedAt simclock.Day
	// RestoredAt, when valid, brings a deleted page back from that day
	// on — §3's observation that "dead links do not remain broken
	// forever" sometimes happens without any redirect.
	RestoredAt simclock.Day
	// MovedAt is the day the page moved to NewPath. Between MovedAt
	// and RedirectFrom the old URL gets the site's error behaviour;
	// from RedirectFrom on it answers 301 to NewPath. If RedirectFrom
	// is Never the redirect is never installed — the move looks like a
	// deletion forever.
	MovedAt      simclock.Day
	NewPath      string
	RedirectFrom simclock.Day
	// RedirectUntil, when valid, ends the redirect window: from that
	// day the old URL reverts to the site's error behaviour. Sites
	// often drop old-URL mappings in a later restructure, which is how
	// a link with a valid archived redirection can be hard-broken by
	// the time IABot checks it (§4.2).
	RedirectUntil simclock.Day
	// Content is the page body. When empty, a deterministic body is
	// generated from the site seed and path.
	Content string
	// Title is the page's human-readable title (generated when empty).
	Title string
}

// NewSite constructs a Site with every lifecycle event disabled and the
// implicit homepage ("/") created alongside the site.
func NewSite(hostname string, created simclock.Day) *Site {
	s := &Site{
		Hostname:           strings.ToLower(hostname),
		Created:            created,
		DNSDiesAt:          simclock.Never,
		TimeoutFrom:        simclock.Never,
		ParkedAt:           simclock.Never,
		GeoBlockedFrom:     simclock.Never,
		OutageFrom:         simclock.Never,
		OutageTo:           simclock.Never,
		ErrorStyle:         Hard404,
		ErrorStyleSwitchAt: simclock.Never,
		pages:              make(map[string]*Page),
	}
	s.pages["/"] = newPage("/", created)
	return s
}

// AddPage registers a page on the site, normalizing the path to start
// with '/'. It returns the page so callers can adjust lifecycle fields.
func (s *Site) AddPage(path string, created simclock.Day) *Page {
	path = normalizePath(path)
	p := newPage(path, created)
	s.pages[path] = p
	return p
}

// Page returns the page registered at path, or nil.
func (s *Site) Page(path string) *Page {
	return s.pages[normalizePath(path)]
}

// EachPage calls fn for every page on the site in unspecified order.
func (s *Site) EachPage(fn func(*Page)) {
	for _, p := range s.pages {
		fn(p)
	}
}

// newPage builds a page with every lifecycle event disabled.
func newPage(path string, created simclock.Day) *Page {
	return &Page{
		Path:          path,
		Created:       created,
		DeletedAt:     simclock.Never,
		RestoredAt:    simclock.Never,
		MovedAt:       simclock.Never,
		RedirectFrom:  simclock.Never,
		RedirectUntil: simclock.Never,
	}
}

// errorStyleAt returns the site's missing-path behaviour on a day,
// honouring a scheduled style switch.
func (s *Site) errorStyleAt(day simclock.Day) ErrorStyle {
	if s.ErrorStyleSwitchAt.Valid() && !day.Before(s.ErrorStyleSwitchAt) {
		return s.ErrorStyleAfter
	}
	return s.ErrorStyle
}

func normalizePath(p string) string {
	if p == "" {
		return "/"
	}
	if p[0] != '/' {
		return "/" + p
	}
	return p
}

// loginPath returns the effective login path for LoginRedirect sites.
func (s *Site) loginPath() string {
	if s.LoginPath != "" {
		return s.LoginPath
	}
	return "/login"
}
