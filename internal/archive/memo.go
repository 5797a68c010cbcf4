package archive

import (
	"sync"
	"sync/atomic"

	"permadead/internal/simclock"
	"permadead/internal/urlutil"
)

// Memo caches the archive-side queries the §4–§5 analyses repeat
// across links: CDX counts and listings (keyed by the full query) and
// per-domain typo-probe candidate sets (keyed by domain and limit).
// The paper's 10,000 sampled links span only ~3,521 domains, so the
// directory-, hostname- and domain-level scans behind Figure 6, the
// typo probe, and the §4.2 sibling search hit the same CDX regions
// thousands of times; the memo collapses those to one scan per key.
//
// Memo is safe for concurrent use. It assumes the underlying Archive
// is quiescent (ideally Frozen) for its lifetime: cached entries are
// never invalidated (though capped memos may evict and recompute
// them). On a miss two goroutines may both compute the same entry;
// both compute identical values against the immutable store, so
// last-writer-wins is deterministic. The typo probe's per-domain
// candidate sets (DomainCandidates) are the exception: each is built
// at most once while its entry is resident.
type Memo struct {
	a *Archive

	// cap bounds each cache map's entry count (0 = unbounded). A batch
	// study's working set is naturally bounded by its sample, but a
	// long-running server sees an open-ended query stream; the cap
	// turns the memo into a bounded cache with arbitrary-entry
	// eviction (any resident entry may be dropped; correctness is
	// unaffected because entries are pure recomputable functions of
	// the immutable archive).
	cap int

	mu     sync.RWMutex
	counts map[CDXQuery]int
	lists  map[CDXQuery][]CDXEntry
	selves map[hostPath]int
	cands  map[domainLimit]*candidateEntry
	perms  map[string]permutation

	hits, misses, evictions atomic.Int64
}

type hostPath struct{ host, pathQuery string }

type domainLimit struct {
	domain string
	limit  int
}

// candidateEntry is one DomainCandidates entry; once runs its build.
type candidateEntry struct {
	once sync.Once
	set  *CandidateSet
}

type permutation struct {
	url string
	ok  bool
}

// NewMemo returns an empty, unbounded memo over a — the right shape
// for batch studies, whose distinct-key population is bounded by the
// sample itself.
func NewMemo(a *Archive) *Memo { return NewMemoCapped(a, 0) }

// NewMemoCapped returns a memo whose five cache maps each hold at most
// entryCap entries; above the cap an arbitrary resident entry is
// evicted per insert and counted in MemoStats.Evictions. entryCap <= 0
// means unbounded. Long-running servers should set a cap so the memo
// cannot grow without limit under an open-ended query stream.
func NewMemoCapped(a *Archive, entryCap int) *Memo {
	if entryCap < 0 {
		entryCap = 0
	}
	return &Memo{
		a:      a,
		cap:    entryCap,
		counts: make(map[CDXQuery]int),
		lists:  make(map[CDXQuery][]CDXEntry),
		selves: make(map[hostPath]int),
		cands:  make(map[domainLimit]*candidateEntry),
		perms:  make(map[string]permutation),
	}
}

// MemoStats reports cache effectiveness: Misses is how many distinct
// CDX scans actually ran, Hits how many repeat scans were avoided,
// Evictions how many entries a capped memo dropped to stay within its
// bound, and Entries the current resident total across all caches.
type MemoStats struct {
	Hits, Misses, Evictions int64
	Entries                 int
}

// Stats returns the memo's cumulative counters and resident size.
func (m *Memo) Stats() MemoStats {
	m.mu.RLock()
	entries := len(m.counts) + len(m.lists) + len(m.selves) + len(m.cands) + len(m.perms)
	m.mu.RUnlock()
	return MemoStats{
		Hits:      m.hits.Load(),
		Misses:    m.misses.Load(),
		Evictions: m.evictions.Load(),
		Entries:   entries,
	}
}

// lookup runs the double-checked read-compute-store cycle shared by
// every memoized query.
func memoGet[K comparable, V any](m *Memo, cache map[K]V, key K, compute func() V) V {
	m.mu.RLock()
	v, ok := cache[key]
	m.mu.RUnlock()
	if ok {
		m.hits.Add(1)
		return v
	}
	m.misses.Add(1)
	v = compute()
	m.mu.Lock()
	memoPut(m, cache, key, v)
	m.mu.Unlock()
	return v
}

// memoPut stores v under key, first evicting an arbitrary resident
// entry (Go's map iteration picks it) when a capped cache is full:
// O(1), no recency bookkeeping on the hot read path; the worst case is
// recomputing a pure function of the frozen archive. Caller holds mu.
func memoPut[K comparable, V any](m *Memo, cache map[K]V, key K, v V) {
	if _, resident := cache[key]; !resident && m.cap > 0 && len(cache) >= m.cap {
		for k := range cache {
			delete(cache, k)
			m.evictions.Add(1)
			break
		}
	}
	cache[key] = v
}

// CDXCount is Archive.CDXCount with per-query memoization.
func (m *Memo) CDXCount(q CDXQuery) int {
	return memoGet(m, m.counts, q, func() int { return m.a.CDXCount(q) })
}

// CDXList is Archive.CDXList with per-query memoization. The returned
// slice is shared between callers and must not be modified.
func (m *Memo) CDXList(q CDXQuery) []CDXEntry {
	return memoGet(m, m.lists, q, func() []CDXEntry { return m.a.CDXList(q) })
}

// CountInDirectory mirrors Archive.CountInDirectory but shares the
// directory-level scan between every link in the same directory and
// the self-capture count between repeat queries for the same URL.
func (m *Memo) CountInDirectory(url string) int {
	host := urlutil.Hostname(url)
	n := m.CDXCount(CDXQuery{Host: host, PathPrefix: pathDirOf(url), Status: 200})
	n -= m.countSelf(host, pathQueryOf(url))
	if n < 0 {
		n = 0
	}
	return n
}

// CountOnHostname mirrors Archive.CountOnHostname, sharing the
// hostname-level scan between every link on the same host.
func (m *Memo) CountOnHostname(url string) int {
	host := urlutil.Hostname(url)
	n := m.CDXCount(CDXQuery{Host: host, Status: 200})
	n -= m.countSelf(host, pathQueryOf(url))
	if n < 0 {
		n = 0
	}
	return n
}

func (m *Memo) countSelf(host, pathQuery string) int {
	key := hostPath{host, pathQuery}
	return memoGet(m, m.selves, key, func() int { return m.a.countSelf(host, pathQuery) })
}

// DomainCandidates returns the typo probe's CandidateSet for
// Archive.DomainURLs(domain, limit), shared between every link under
// the same registrable domain. A missing set is built once: the first
// caller inserts the entry and builds it, and concurrent callers for
// the key wait on that build. A capped memo may evict the entry
// mid-build; callers already holding it still receive the complete
// set, and a later call builds a fresh one.
func (m *Memo) DomainCandidates(domain string, limit int) *CandidateSet {
	key := domainLimit{domain, limit}
	m.mu.RLock()
	e, ok := m.cands[key]
	m.mu.RUnlock()
	if !ok {
		m.mu.Lock()
		if e, ok = m.cands[key]; !ok {
			e = &candidateEntry{}
			memoPut(m, m.cands, key, e)
		}
		m.mu.Unlock()
	}
	if ok {
		m.hits.Add(1)
	} else {
		m.misses.Add(1)
	}
	e.once.Do(func() { e.set = m.a.candidateSet(domain, limit) })
	return e.set
}

// FindQueryPermutation mirrors Archive.FindQueryPermutation with
// per-URL memoization, so the §5.2 rescue probe canonicalizes and
// scans each query-bearing link once regardless of how many stages
// (or repeated runs) probe it.
func (m *Memo) FindQueryPermutation(rawURL string) (string, bool) {
	v := memoGet(m, m.perms, rawURL, func() permutation {
		url, ok := m.a.FindQueryPermutation(rawURL)
		return permutation{url: url, ok: ok}
	})
	return v.url, v.ok
}

// Snapshots passes through to the archive (a per-URL snapshot list is
// one key search and its rows decoded; caching it would only hold a
// second copy of the rows).
func (m *Memo) Snapshots(url string) []Snapshot { return m.a.Snapshots(url) }

// SnapshotsBetween passes through to the archive.
func (m *Memo) SnapshotsBetween(url string, from, to simclock.Day) []Snapshot {
	return m.a.SnapshotsBetween(url, from, to)
}
