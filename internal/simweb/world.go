package simweb

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"permadead/internal/simclock"
	"permadead/internal/urlutil"
)

// World is the collection of simulated sites, indexed by hostname. A
// World is safe for concurrent readers once construction is complete;
// mutating methods (AddSite, AddPage) must not race with lookups.
//
// A world may be backed by a SiteSource (SetSource), in which case
// sites materialize lazily on first lookup — the serving shape the
// paged on-disk universe format uses. A source host's first touch
// decodes it in the host's slot, outside the world's lock; callers
// that touch the host meanwhile wait for that one decode.
type World struct {
	mu    sync.RWMutex
	sites map[string]*Site
	src   SiteSource
	// hosts are the source's hostnames, sorted, and slots[i] is the
	// load of hosts[i].
	hosts []string
	slots []siteLoad
	// bodyLens memoises pageBodyLen per served page (*Page → int). It
	// lives here rather than on Page so that a page's value never
	// depends on whether it has been served.
	bodyLens sync.Map
}

// siteLoad is one source host's load: the first caller decodes the
// site in once, and a caller arriving meanwhile waits there for it.
type siteLoad struct {
	once sync.Once
	site *Site
}

// SiteSource lazily supplies sites from external storage (a paged
// universe file). Implementations must be safe for concurrent use;
// LoadSite returns a freshly built Site (nil for unknown hostnames)
// that the World caches and owns from then on.
type SiteSource interface {
	// LoadSite materializes one site, or nil when the hostname is not
	// in the source.
	LoadSite(hostname string) *Site
	// Hostnames returns every hostname in the source, sorted.
	Hostnames() []string
	// NumSites returns the number of sites in the source.
	NumSites() int
}

// NewWorld returns an empty world.
func NewWorld() *World {
	return &World{sites: make(map[string]*Site)}
}

// SetSource backs the world with a lazy site source. Call it once,
// before concurrent use; sites already in the map shadow the source.
func (w *World) SetSource(src SiteSource) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.src = src
	w.hosts = src.Hostnames()
	w.slots = make([]siteLoad, len(w.hosts))
}

// AddSite creates and registers a site. It panics if the hostname is
// already taken — worldgen bugs should fail loudly, not silently merge
// two sites.
func (w *World) AddSite(hostname string, created simclock.Day) *Site {
	hostname = strings.ToLower(hostname)
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, ok := w.sites[hostname]; ok {
		panic(fmt.Sprintf("simweb: duplicate site %q", hostname))
	}
	s := NewSite(hostname, created)
	w.sites[hostname] = s
	return s
}

// Site returns the site for hostname, or nil when unknown. On a
// source-backed world a miss faults the site in from the source, once
// per hostname: concurrent callers share one decode and one *Site.
func (w *World) Site(hostname string) *Site {
	hostname = strings.ToLower(hostname)
	w.mu.RLock()
	s, cached := w.sites[hostname]
	src := w.src
	w.mu.RUnlock()
	if cached || src == nil {
		return s
	}
	i, ok := slices.BinarySearch(w.hosts, hostname)
	if !ok {
		return nil
	}
	l := &w.slots[i]
	l.once.Do(func() { l.site = src.LoadSite(hostname) })
	return l.site
}

// bodyLen is pageBodyLen(s, p), measured on the page's first 200 and
// kept: every 200 the transport answers states Content-Length, a
// status-only check's included. Racing first callers store the same
// length.
func (w *World) bodyLen(s *Site, p *Page) int {
	if n, ok := w.bodyLens.Load(p); ok {
		return n.(int)
	}
	n := pageBodyLen(s, p)
	w.bodyLens.Store(p, n)
	return n
}

// Sites returns the number of registered sites (the source's count on
// a source-backed world).
func (w *World) Sites() int {
	w.mu.RLock()
	defer w.mu.RUnlock()
	if w.src != nil {
		return w.src.NumSites()
	}
	return len(w.sites)
}

// Hostnames returns all registered hostnames in sorted order.
func (w *World) Hostnames() []string {
	w.mu.RLock()
	defer w.mu.RUnlock()
	if w.src != nil {
		return slices.Clone(w.hosts)
	}
	hs := make([]string, 0, len(w.sites))
	for h := range w.sites {
		hs = append(hs, h)
	}
	sort.Strings(hs)
	return hs
}

// Resolves reports whether DNS resolution for hostname succeeds on the
// given day: the site must exist, have come online, and not have let
// its registration lapse.
func (w *World) Resolves(hostname string, day simclock.Day) bool {
	return w.Site(hostname).resolves(day)
}

// resolves is Resolves for a looked-up site, nil for an unknown host.
func (s *Site) resolves(day simclock.Day) bool {
	return s != nil && !day.Before(s.Created) &&
		!(s.DNSDiesAt.Valid() && !day.Before(s.DNSDiesAt))
}

// PageByURL returns the site and page a URL names, or nils. The lookup
// uses the URL's exact path+query string as the page key.
func (w *World) PageByURL(rawURL string) (*Site, *Page) {
	host := urlutil.Hostname(rawURL)
	s := w.Site(host)
	if s == nil {
		return nil, nil
	}
	return s, s.Page(pathQueryOf(rawURL))
}

// pathQueryOf extracts "/path?query" from a URL, defaulting to "/".
func pathQueryOf(rawURL string) string {
	rest := rawURL
	if i := strings.Index(rest, "://"); i >= 0 {
		rest = rest[i+3:]
	}
	if i := strings.IndexByte(rest, '#'); i >= 0 {
		rest = rest[:i]
	}
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		return rest[i:]
	}
	return "/"
}

// Rank returns the site's popularity rank (1 = most popular), serving
// as the study's stand-in for the Alexa ranking the paper used for
// Figure 3(b). The boolean reports whether the host is known and
// carries a rank.
func (w *World) Rank(hostname string) (int, bool) {
	s := w.Site(hostname)
	if s == nil || s.Rank <= 0 {
		return 0, false
	}
	return s.Rank, true
}
