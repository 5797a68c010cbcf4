package archive

import (
	"cmp"
	"slices"
	"sort"
	"strings"
	"sync"
)

// CandidateSet is what the §5.2 typo probe compares a never-archived
// URL against: the distinct archived URLs DomainURLs lists for one
// domain and limit, without their "http://", grouped by byte length.
// A string at edit distance 1 from one of length n has length n-1, n
// or n+1, so a probe visits three groups instead of the whole domain.
//
// Bulk regions are listed by count: a region's names all have one
// length, and they are materialized once, the first time a probe
// visits that length.
type CandidateSet struct {
	urls      []string // listed one by one, by ascending length
	lazy      []*lazyRegion
	truncated bool
}

// lazyRegion is a bulk region's first n listed names: the names in
// index order, less the indices in skip (names listed before).
type lazyRegion struct {
	r     BulkRegion
	n     int
	skip  []int
	once  sync.Once
	names string // the n strings host+DirPrefix+name, back to back
}

// bulkNameLen is the length of every generated name whose index is
// below 10⁶ ("item-%06d-%04x.html").
const bulkNameLen = len("item-000000-0000.html")

func (l *lazyRegion) size() int { return len(l.r.Host) + len(l.r.DirPrefix) + bulkNameLen }

func (l *lazyRegion) expand() {
	var b strings.Builder
	b.Grow(l.n * l.size())
	var name [bulkNameCap]byte
	skip := l.skip
	for i := 0; b.Len() < l.n*l.size(); i++ {
		if len(skip) > 0 && skip[0] == i {
			skip = skip[1:]
			continue
		}
		b.WriteString(l.r.Host)
		b.WriteString(l.r.DirPrefix)
		b.Write(l.r.appendName(name[:0], i))
	}
	l.names = b.String()
}

// Truncated reports whether the domain holds more distinct archived
// URLs than the limit, as DomainURLs does.
func (s *CandidateSet) Truncated() bool { return s.truncated }

// Each calls fn for every candidate of byte length n, in no particular
// order, until fn returns false. Candidates are distinct.
func (s *CandidateSet) Each(n int, fn func(string) bool) {
	i := sort.Search(len(s.urls), func(i int) bool { return len(s.urls[i]) >= n })
	for ; i < len(s.urls) && len(s.urls[i]) == n; i++ {
		if !fn(s.urls[i]) {
			return
		}
	}
	for _, l := range s.lazy {
		if l.size() != n {
			continue
		}
		l.once.Do(l.expand)
		for i := 0; i < l.n; i++ {
			if !fn(l.names[i*n : (i+1)*n]) {
				return
			}
		}
	}
}

// candidateSet builds the set for DomainURLs(domain, limit) by the
// same walk: per host, in name order, its first limit+1 rows (explicit
// rows in insertion order, then bulk regions), deduplicated across the
// domain and cut at limit distinct URLs.
//
// A generated name can repeat a listed string only under the same
// host+DirPrefix — as a listed explicit row, or as the same index and
// tag in another region there — because no host holds a '/' (Add cuts
// hosts at the first '/', AddBulkCoverage rejects one), the only way
// two hosts' strings could coincide. So regions are listed by count,
// with only those repeats tracked, by (index, tag). Past 10⁶ names
// (more digits) the set is DomainURLs' own list. It panics before
// Freeze.
func (a *Archive) candidateSet(domain string, limit int) *CandidateSet {
	if limit <= 0 {
		limit = DefaultCDXLimit
	}
	s := &CandidateSet{}
	defer func() { slices.SortFunc(s.urls, func(p, q string) int { return cmp.Compare(len(p), len(q)) }) }()
	if limit >= 1e6 {
		var urls []string
		urls, s.truncated = a.DomainURLs(domain, limit)
		for _, u := range urls {
			s.urls = append(s.urls, u[len("http://"):])
		}
		return s
	}
	seen := make(map[string]struct{})
	listed := 0
	for _, h := range a.domainHosts(domain) {
		rows, regions := a.hostListing(h, limit+1)
		for _, u := range rows {
			if _, dup := seen[u]; dup {
				continue
			}
			seen[u] = struct{}{}
			if listed >= limit {
				s.truncated = true
				return s
			}
			s.urls = append(s.urls, u)
			listed++
		}
		budget := limit + 1 - len(rows)
		shared := sharedDirs(rows, regions, budget)
		for _, r := range regions {
			k := min(r.Count, budget)
			if k <= 0 {
				continue
			}
			budget -= k
			l := &lazyRegion{r: r}
			if keys := shared[r.Host+r.DirPrefix]; keys != nil {
				for i := 0; i < k; i++ {
					if key := uint64(i)<<16 | r.tag(i); keys[key] {
						l.skip = append(l.skip, i)
					} else {
						keys[key] = true
					}
				}
			}
			fresh := k - len(l.skip)
			l.n = min(fresh, limit-listed)
			listed += l.n
			if l.n > 0 {
				s.lazy = append(s.lazy, l)
			}
			if l.n < fresh {
				s.truncated = true
				return s
			}
		}
	}
	return s
}

// sharedDirs returns, for each host+DirPrefix where a name can be
// listed twice — it holds two regions, or a region and a listed row
// that reads as a generated name — the (index, tag) keys of those
// rows' names, sized for the at most budget names listed there.
func sharedDirs(rows []string, regions []BulkRegion, budget int) map[string]map[uint64]bool {
	type dir struct{ regions, names int }
	dirs := make(map[string]dir, len(regions))
	for _, r := range regions {
		d := dirs[r.Host+r.DirPrefix]
		dirs[r.Host+r.DirPrefix] = dir{d.regions + 1, min(d.names+r.Count, budget)}
	}
	shared := make(map[string]map[uint64]bool)
	keys := func(d string) map[uint64]bool {
		if shared[d] == nil {
			shared[d] = make(map[uint64]bool, dirs[d].names)
		}
		return shared[d]
	}
	for d, n := range dirs {
		if n.regions > 1 {
			keys(d)
		}
	}
	for _, u := range rows {
		i := len(u) - bulkNameLen
		if i < 0 || !strings.HasPrefix(u[i:], "item-") || dirs[u[:i]].regions == 0 {
			continue
		}
		if key, ok := nameKey(u[i:]); ok {
			keys(u[:i])[key] = true
		}
	}
	return shared
}

// nameKey is uint64(i)<<16 | tag for the generated name of index i <
// 10⁶ and that tag; false for any string no region generates.
func nameKey(name string) (uint64, bool) {
	if len(name) != bulkNameLen || name[:5] != "item-" || name[11] != '-' || name[16:] != ".html" {
		return 0, false
	}
	var i, tag uint64
	for _, c := range name[5:11] {
		if c < '0' || c > '9' {
			return 0, false
		}
		i = i*10 + uint64(c-'0')
	}
	for _, c := range name[12:16] {
		d := strings.IndexRune("0123456789abcdef", c)
		if d < 0 {
			return 0, false
		}
		tag = tag<<4 | uint64(d)
	}
	return i<<16 | tag, true
}

// hostListing splits what a frozen archive's CDXList{Host: host,
// Limit: n} lists: the URLs of host's first n explicit rows in
// insertion order, without "http://", and host's bulk regions.
func (a *Archive) hostListing(host string, n int) (rows []string, regions []BulkRegion) {
	var r hostRows
	if !a.cdx.host(host, &r) {
		return nil, nil
	}
	rows = make([]string, min(n, r.n))
	for rank := range rows {
		rows[rank] = r.url(r.pos(rank))[len("http://"):]
	}
	regions = make([]BulkRegion, r.numBulk())
	for i := range regions {
		regions[i] = r.bulk(i)
	}
	return rows, regions
}
