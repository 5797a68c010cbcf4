package archive

import (
	"sync"
	"sync/atomic"
)

// Memo caches the typo probe's per-domain candidate sets (keyed by
// domain and limit). The paper's 10,000 sampled links span only ~3,521
// domains, and every never-archived link under one registrable domain
// compares against the same set, so each set is built once per key and
// shared. The other §4–§5 archive reads — CDX counts and listings,
// directory and hostname coverage, the query-permutation probe — are
// binary searches over the frozen index (DESIGN.md §3.2) and go to the
// Archive directly.
//
// Memo is safe for concurrent use. It assumes the underlying Archive
// is quiescent (ideally Frozen) for its lifetime: cached sets are never
// invalidated, though a capped memo may evict and rebuild them. Each
// set is built at most once while its entry is resident.
type Memo struct {
	a *Archive

	// cap bounds the cache's entry count (0 = unbounded). A batch
	// study's working set is naturally bounded by its sample, but a
	// long-running server sees an open-ended stream of domains; the cap
	// turns the memo into a bounded cache with arbitrary-entry
	// eviction (any resident entry may be dropped; correctness is
	// unaffected because entries are pure recomputable functions of
	// the immutable archive).
	cap int

	mu    sync.RWMutex
	cands map[domainLimit]*candidateEntry

	hits, misses, evictions atomic.Int64
}

type domainLimit struct {
	domain string
	limit  int
}

// candidateEntry is one DomainCandidates entry; once runs its build.
type candidateEntry struct {
	once sync.Once
	set  *CandidateSet
}

// NewMemo returns an empty, unbounded memo over a — the right shape
// for batch studies, whose distinct-domain population is bounded by
// the sample itself.
func NewMemo(a *Archive) *Memo { return NewMemoCapped(a, 0) }

// NewMemoCapped returns a memo that holds at most entryCap candidate
// sets; above the cap an arbitrary resident entry is evicted per insert
// and counted in MemoStats.Evictions. entryCap <= 0 means unbounded.
// Long-running servers should set a cap so the memo cannot grow
// without limit under an open-ended query stream.
func NewMemoCapped(a *Archive, entryCap int) *Memo {
	if entryCap < 0 {
		entryCap = 0
	}
	return &Memo{a: a, cap: entryCap, cands: make(map[domainLimit]*candidateEntry)}
}

// MemoStats reports cache effectiveness: Misses is how many candidate
// sets were built, Hits how many lookups reused a resident set,
// Evictions how many entries a capped memo dropped to stay within its
// bound, and Entries the current resident count.
type MemoStats struct {
	Hits, Misses, Evictions int64
	Entries                 int
}

// Stats returns the memo's cumulative counters and resident size.
func (m *Memo) Stats() MemoStats {
	m.mu.RLock()
	entries := len(m.cands)
	m.mu.RUnlock()
	return MemoStats{
		Hits:      m.hits.Load(),
		Misses:    m.misses.Load(),
		Evictions: m.evictions.Load(),
		Entries:   entries,
	}
}

// memoPut stores e under key, first evicting an arbitrary resident
// entry (Go's map iteration picks it) when a capped memo is full:
// O(1), no recency bookkeeping on the hot read path; the worst case is
// rebuilding a pure function of the frozen archive. Caller holds mu.
func (m *Memo) memoPut(key domainLimit, e *candidateEntry) {
	if m.cap > 0 && len(m.cands) >= m.cap {
		for k := range m.cands {
			delete(m.cands, k)
			m.evictions.Add(1)
			break
		}
	}
	m.cands[key] = e
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
			m.memoPut(key, e)
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
