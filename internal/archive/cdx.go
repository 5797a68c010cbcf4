package archive

import (
	"strings"

	"permadead/internal/simclock"
	"permadead/internal/urlutil"
)

// The CDX API (§5.2): query the archive's index by host or URL prefix.
// The study uses it to ask, for a never-archived URL, how many *other*
// URLs in the same directory or on the same hostname have 200-status
// captures — distinguishing page-specific coverage gaps from
// directory- or host-wide ones.

// CDXEntry is one index row.
type CDXEntry struct {
	URL           string
	Day           simclock.Day
	InitialStatus int
}

// CDXQuery selects index rows.
type CDXQuery struct {
	// Host restricts rows to one hostname (required).
	Host string
	// PathPrefix, when non-empty, restricts rows to URLs whose
	// path?query begins with it (e.g. "/news/2014/").
	PathPrefix string
	// Status, when non-zero, keeps only rows with that initial status.
	Status int
	// Limit bounds how many rows List returns (0 = DefaultCDXLimit).
	Limit int
}

// DefaultCDXLimit bounds enumeration so bulk regions with very large
// counts cannot blow up memory; Count is exact regardless.
const DefaultCDXLimit = 10000

// CDXCount returns the number of index rows matching the query,
// including bulk-coverage regions (which count as initial-status-200
// rows): a binary-search range width (O(log n)), bulk regions counted
// in O(1). It panics before Freeze.
func (a *Archive) CDXCount(q CDXQuery) int {
	a.checkFrozen("CDXCount")
	return a.cdx.count(strings.ToLower(q.Host), q)
}

// CDXList enumerates matching rows up to the limit: explicit entries
// in capture-insertion order, then bulk-region rows (which
// materialize deterministically), taken from the index's binary-search
// ranges. It panics before Freeze.
func (a *Archive) CDXList(q CDXQuery) []CDXEntry {
	a.checkFrozen("CDXList")
	limit := q.Limit
	if limit <= 0 {
		limit = DefaultCDXLimit
	}
	return a.cdx.list(strings.ToLower(q.Host), q, limit)
}

// bulkMatchCount counts how many of a bulk region's entries fall under
// the query's path prefix. All bulk paths live directly in DirPrefix,
// so the answer is all-or-nothing except when the query prefix is
// deeper than the region's directory.
func bulkMatchCount(r BulkRegion, q CDXQuery) int {
	switch {
	case q.PathPrefix == "" || strings.HasPrefix(r.DirPrefix, q.PathPrefix):
		return r.Count
	case strings.HasPrefix(q.PathPrefix, r.DirPrefix):
		// A deeper prefix matches only entries whose generated name
		// happens to extend it; generated names are leaves, so none do.
		return 0
	default:
		return 0
	}
}

func appendBulk(out []CDXEntry, r BulkRegion, q CDXQuery, limit int) []CDXEntry {
	if bulkMatchCount(r, q) == 0 {
		return out
	}
	prefix := "http://" + r.Host + r.DirPrefix
	var name [bulkNameCap]byte
	for i := 0; i < r.Count && len(out) < limit; i++ {
		out = append(out, CDXEntry{
			URL:           prefix + string(r.appendName(name[:0], i)),
			Day:           r.DayAt(i),
			InitialStatus: 200,
		})
	}
	return out
}

// CountInDirectory answers the Figure 6 directory-level question: how
// many *other* URLs in the same directory as url have initial-status-
// 200 captures.
func (a *Archive) CountInDirectory(url string) int {
	host := urlutil.Hostname(url)
	dir := pathDirOf(url)
	self := pathQueryOf(url)
	n := a.CDXCount(CDXQuery{Host: host, PathPrefix: dir, Status: 200})
	// Exclude captures of the URL itself.
	n -= a.countSelf(host, self)
	if n < 0 {
		n = 0
	}
	return n
}

// CountOnHostname answers the hostname-level question.
func (a *Archive) CountOnHostname(url string) int {
	host := urlutil.Hostname(url)
	self := pathQueryOf(url)
	n := a.CDXCount(CDXQuery{Host: host, Status: 200})
	n -= a.countSelf(host, self)
	if n < 0 {
		n = 0
	}
	return n
}

func (a *Archive) countSelf(host, pathQuery string) int {
	a.checkFrozen("countSelf")
	return a.cdx.countSelf(host, pathQuery)
}

// DomainURLs lists distinct archived URLs (any status) across every
// indexed hostname belonging to the registrable domain, up to limit —
// the §5.2 typo analysis compares a never-archived URL against these.
// truncated is true when the domain holds more distinct archived URLs
// than limit, so callers (the typo probe's "no silent caps"
// accounting) can tell an exhaustive scan from a capped one.
func (a *Archive) DomainURLs(domain string, limit int) (urls []string, truncated bool) {
	if limit <= 0 {
		limit = DefaultCDXLimit
	}
	var seen map[string]struct{}
	var out []string
	for _, h := range a.domainHosts(domain) {
		// Enumerate one row beyond the cap so truncation is detectable.
		rows := a.CDXList(CDXQuery{Host: h, Limit: limit + 1})
		if seen == nil {
			// Most domains are one host; size for it so neither the
			// set nor the output regrows while it is enumerated.
			seen = make(map[string]struct{}, len(rows))
			out = make([]string, 0, min(len(rows), limit))
		}
		for _, e := range rows {
			if _, dup := seen[e.URL]; dup {
				continue
			}
			seen[e.URL] = struct{}{}
			if len(out) >= limit {
				return out, true
			}
			out = append(out, e.URL)
		}
	}
	return out, false
}

// domainHosts returns the sorted hosts under a registrable domain.
func (a *Archive) domainHosts(domain string) []string {
	a.checkFrozen("domainHosts")
	return a.cdx.domainHosts(strings.ToLower(domain))
}

// pathDirOf returns the directory part of a URL's path ("/a/b/" for
// "/a/b/c.html"), query excluded.
func pathDirOf(rawURL string) string {
	pq := pathQueryOf(rawURL)
	if i := strings.IndexAny(pq, "?#"); i >= 0 {
		pq = pq[:i]
	}
	if i := strings.LastIndexByte(pq, '/'); i >= 0 {
		return pq[:i+1]
	}
	return "/"
}

// FindQueryPermutation looks for an archived URL that is identical to
// rawURL except for the order of its query parameters — the paper's
// §5.2 implication (b): some query-heavy URLs were archived under a
// permuted parameter order and can be rescued by canonicalizing.
// Explicit entries only; bulk regions carry no query strings. It is a
// lookup of the index's canonical-query-key groups, and panics before
// Freeze.
func (a *Archive) FindQueryPermutation(rawURL string) (string, bool) {
	a.checkFrozen("FindQueryPermutation")
	if !urlutil.HasQuery(rawURL) {
		return "", false
	}
	want := urlutil.CanonicalQueryKey(rawURL)
	self := urlutil.Normalize(rawURL)
	return a.cdx.findPermutation(urlutil.Hostname(rawURL), want, self)
}
