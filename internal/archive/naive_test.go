package archive

import (
	"sort"
	"strings"

	"permadead/internal/urlutil"
)

// The naive reference: each whole-archive read as a linear scan of an
// unfrozen archive's maps — byHost's insertion-ordered entries and bulk
// regions, byKey's snapshots. The frozen index is held to these
// (TestFrozenIndexMatchesNaiveScan), and tests over mutable fixtures
// read through them. Each takes the read lock, as a point read does.

func naiveCDXCount(a *Archive, q CDXQuery) int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	hi := a.byHost[strings.ToLower(q.Host)]
	if hi == nil {
		return 0
	}
	n := 0
	for _, e := range hi.entries {
		if matchEntry(e, q) {
			n++
		}
	}
	if q.Status == 0 || q.Status == 200 {
		for _, r := range hi.bulk {
			n += bulkMatchCount(r, q)
		}
	}
	return n
}

func naiveCDXList(a *Archive, q CDXQuery) []CDXEntry {
	host := strings.ToLower(q.Host)
	limit := q.Limit
	if limit <= 0 {
		limit = DefaultCDXLimit
	}
	a.mu.RLock()
	defer a.mu.RUnlock()
	hi := a.byHost[host]
	if hi == nil {
		return nil
	}
	out := make([]CDXEntry, 0, min(limit, len(hi.entries)))
	prefix := "http://" + host
	for _, e := range hi.entries {
		if len(out) >= limit {
			return out
		}
		if matchEntry(e, q) {
			out = append(out, CDXEntry{
				URL:           prefix + e.pathQuery,
				Day:           e.day,
				InitialStatus: e.initialStatus,
			})
		}
	}
	if q.Status == 0 || q.Status == 200 {
		for _, r := range hi.bulk {
			if len(out) >= limit {
				break
			}
			out = appendBulk(out, r, q, limit)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

func matchEntry(e cdxRecord, q CDXQuery) bool {
	if q.Status != 0 && e.initialStatus != q.Status {
		return false
	}
	if q.PathPrefix != "" && !strings.HasPrefix(e.pathQuery, q.PathPrefix) {
		return false
	}
	return true
}

func naiveCountSelf(a *Archive, host, pathQuery string) int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	hi := a.byHost[host]
	if hi == nil {
		return 0
	}
	n := 0
	for _, e := range hi.entries {
		if e.pathQuery == pathQuery && e.initialStatus == 200 {
			n++
		}
	}
	return n
}

// naiveCountInDirectory and naiveCountOnHostname are CountInDirectory
// and CountOnHostname over the naive counts.
func naiveCountInDirectory(a *Archive, url string) int {
	host := urlutil.Hostname(url)
	n := naiveCDXCount(a, CDXQuery{Host: host, PathPrefix: pathDirOf(url), Status: 200})
	return max(n-naiveCountSelf(a, host, pathQueryOf(url)), 0)
}

func naiveCountOnHostname(a *Archive, url string) int {
	host := urlutil.Hostname(url)
	n := naiveCDXCount(a, CDXQuery{Host: host, Status: 200})
	return max(n-naiveCountSelf(a, host, pathQueryOf(url)), 0)
}

func naiveDomainHosts(a *Archive, domain string) []string {
	domain = strings.ToLower(domain)
	a.mu.RLock()
	var hosts []string
	for h := range a.byHost {
		if urlutil.DomainOfHost(h) == domain {
			hosts = append(hosts, h)
		}
	}
	a.mu.RUnlock()
	sort.Strings(hosts)
	return hosts
}

// naiveDomainURLs is DomainURLs over the naive host listing.
func naiveDomainURLs(a *Archive, domain string, limit int) (urls []string, truncated bool) {
	if limit <= 0 {
		limit = DefaultCDXLimit
	}
	var seen map[string]struct{}
	var out []string
	for _, h := range naiveDomainHosts(a, domain) {
		// Enumerate one row beyond the cap so truncation is detectable.
		rows := naiveCDXList(a, CDXQuery{Host: h, Limit: limit + 1})
		if seen == nil {
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

// naiveFindQueryPermutation scans the URL's host index and normalizes
// every query-bearing candidate.
func naiveFindQueryPermutation(a *Archive, rawURL string) (string, bool) {
	if !urlutil.HasQuery(rawURL) {
		return "", false
	}
	want := urlutil.CanonicalQueryKey(rawURL)
	self := urlutil.Normalize(rawURL)
	host := urlutil.Hostname(rawURL)
	a.mu.RLock()
	hi := a.byHost[host]
	var candidates []string
	if hi != nil {
		for _, e := range hi.entries {
			if strings.ContainsRune(e.pathQuery, '?') {
				candidates = append(candidates, "http://"+host+e.pathQuery)
			}
		}
	}
	a.mu.RUnlock()

	for _, cand := range candidates {
		if urlutil.Normalize(cand) == self {
			continue
		}
		if urlutil.CanonicalQueryKey(cand) == want {
			return cand, true
		}
	}
	return "", false
}

func naiveTotalSnapshots(a *Archive) int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	n := 0
	for _, s := range a.byKey {
		n += len(s)
	}
	return n
}

func naiveEachSnapshot(a *Archive, fn func(Snapshot)) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	for _, snaps := range a.byKey {
		for _, s := range snaps {
			fn(s)
		}
	}
}

func naiveEachBulkRegion(a *Archive, fn func(BulkRegion)) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	for _, hi := range a.byHost {
		for _, r := range hi.bulk {
			fn(r)
		}
	}
}
