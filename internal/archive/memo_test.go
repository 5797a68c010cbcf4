package archive

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func coverageFixture() *Archive {
	a := New()
	// news.simtest: a directory with several 200 captures plus noise.
	a.Add(snap("http://news.simtest/2014/a.html", 10, 200))
	a.Add(snap("http://news.simtest/2014/b.html", 11, 200))
	a.Add(snap("http://news.simtest/2014/c.html", 12, 404))
	a.Add(snap("http://news.simtest/about.html", 13, 200))
	// blog.news.simtest: same registrable domain, distinct host.
	a.Add(snap("http://blog.news.simtest/post-1", 14, 200))
	a.Add(snap("http://blog.news.simtest/post-2", 15, 200))
	// elsewhere.simtest: unrelated domain.
	a.Add(snap("http://elsewhere.simtest/x", 16, 200))
	return a
}

// TestMemoMatchesArchive checks every memoized query returns exactly
// what the direct archive call returns, on first and repeat use.
func TestMemoMatchesArchive(t *testing.T) {
	a := coverageFixture()
	a.Freeze()
	m := NewMemo(a)

	urls := []string{
		"http://news.simtest/2014/a.html",
		"http://news.simtest/2014/missing.html",
		"http://news.simtest/about.html",
		"http://blog.news.simtest/post-1",
	}
	for pass := 0; pass < 2; pass++ {
		for _, u := range urls {
			if got, want := m.CountInDirectory(u), a.CountInDirectory(u); got != want {
				t.Errorf("pass %d CountInDirectory(%s) = %d, want %d", pass, u, got, want)
			}
			if got, want := m.CountOnHostname(u), a.CountOnHostname(u); got != want {
				t.Errorf("pass %d CountOnHostname(%s) = %d, want %d", pass, u, got, want)
			}
		}
		q := CDXQuery{Host: "news.simtest", Status: 200}
		if got, want := m.CDXCount(q), a.CDXCount(q); got != want {
			t.Errorf("pass %d CDXCount = %d, want %d", pass, got, want)
		}
		if got, want := m.CDXList(q), a.CDXList(q); len(got) != len(want) {
			t.Errorf("pass %d CDXList = %d rows, want %d", pass, len(got), len(want))
		}
		set := m.DomainCandidates("news.simtest", 100)
		gotURLs, gotTrunc := members(set), set.Truncated()
		wantURLs, wantTrunc := strippedDomainURLs(a, "news.simtest", 100)
		if gotTrunc != wantTrunc || fmt.Sprint(gotURLs) != fmt.Sprint(wantURLs) {
			t.Errorf("pass %d DomainCandidates = %v/%v, want %v/%v",
				pass, gotURLs, gotTrunc, wantURLs, wantTrunc)
		}
	}
}

// TestMemoCountsHits asserts the memo actually collapses repeat scans:
// the second pass over the same keys must be all hits, no new misses.
func TestMemoCountsHits(t *testing.T) {
	a := coverageFixture()
	a.Freeze()
	m := NewMemo(a)

	work := func() {
		m.CountInDirectory("http://news.simtest/2014/a.html")
		m.CountInDirectory("http://news.simtest/2014/b.html") // same dir, distinct self-count
		m.CountOnHostname("http://news.simtest/2014/a.html")
		m.DomainCandidates("news.simtest", 50)
	}
	work()
	first := m.Stats()
	if first.Misses == 0 {
		t.Fatal("first pass recorded no misses")
	}
	work()
	second := m.Stats()
	if second.Misses != first.Misses {
		t.Errorf("repeat pass added misses: %d -> %d", first.Misses, second.Misses)
	}
	if second.Hits <= first.Hits {
		t.Errorf("repeat pass added no hits: %d -> %d", first.Hits, second.Hits)
	}
}

// TestMemoFindQueryPermutation checks the memoized §5.2 rescue probe
// matches the archive on hits, misses, and query-less URLs, and that
// repeat probes are cache hits rather than re-scans.
func TestMemoFindQueryPermutation(t *testing.T) {
	a := New()
	a.Add(snap("http://q.simtest/view.asp?b=2&a=1", 100, 200))
	a.Add(snap("http://q.simtest/plain.html", 100, 200))
	a.Freeze()
	m := NewMemo(a)

	probes := []string{
		"http://q.simtest/view.asp?a=1&b=2", // rescuable permutation
		"http://q.simtest/view.asp?b=2&a=1", // identical URL: no rescue
		"http://q.simtest/view.asp?a=9&b=2", // different values: no rescue
		"http://q.simtest/plain.html",       // query-less: skipped
		"http://none.simtest/x?a=1&b=2",     // unknown host
	}
	for pass := 0; pass < 2; pass++ {
		for _, u := range probes {
			gotURL, gotOK := m.FindQueryPermutation(u)
			wantURL, wantOK := a.FindQueryPermutation(u)
			if gotURL != wantURL || gotOK != wantOK {
				t.Errorf("pass %d FindQueryPermutation(%s) = %q/%v, want %q/%v",
					pass, u, gotURL, gotOK, wantURL, wantOK)
			}
		}
	}

	st := m.Stats()
	// First pass: one miss per distinct probe; second pass: all hits.
	if want := int64(len(probes)); st.Misses != want {
		t.Errorf("misses = %d, want %d", st.Misses, want)
	}
	if want := int64(len(probes)); st.Hits != want {
		t.Errorf("hits = %d, want %d", st.Hits, want)
	}
}

func TestDomainURLsTruncation(t *testing.T) {
	a := New()
	for i := 0; i < 10; i++ {
		a.Add(snap(fmt.Sprintf("http://big.simtest/page-%02d", i), 10+i, 200))
	}

	urls, truncated := a.DomainURLs("big.simtest", 4)
	if !truncated || len(urls) != 4 {
		t.Errorf("limit 4 over 10 URLs: got %d urls, truncated=%v", len(urls), truncated)
	}
	urls, truncated = a.DomainURLs("big.simtest", 10)
	if truncated || len(urls) != 10 {
		t.Errorf("limit == count must not truncate: got %d urls, truncated=%v", len(urls), truncated)
	}
	urls, truncated = a.DomainURLs("big.simtest", 100)
	if truncated || len(urls) != 10 {
		t.Errorf("limit above count: got %d urls, truncated=%v", len(urls), truncated)
	}
}

// TestFrozenArchiveConcurrentReads hammers a frozen archive (and a
// shared memo over it) from many goroutines; run with -race this
// enforces the package's concurrency contract.
func TestFrozenArchiveConcurrentReads(t *testing.T) {
	a := coverageFixture()
	a.Freeze()
	if !a.frozen.Load() {
		t.Fatal("not frozen after Freeze")
	}
	m := NewMemo(a)

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				a.Snapshots("http://news.simtest/2014/a.html")
				a.CDXCount(CDXQuery{Host: "news.simtest", Status: 200})
				a.CountInDirectory("http://news.simtest/2014/b.html")
				a.TotalSnapshots()
				a.Hosts()
				m.CountOnHostname("http://blog.news.simtest/post-1")
				m.DomainCandidates("news.simtest", 50).Each(len("news.simtest/about.html"), func(string) bool { return true })
			}
		}()
	}
	wg.Wait()
}

// TestUnfrozenArchiveConcurrentReadWrite checks the RWMutex side of the
// contract: before Freeze, concurrent reads and writes are safe.
func TestUnfrozenArchiveConcurrentReadWrite(t *testing.T) {
	a := coverageFixture()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				a.Add(snap(fmt.Sprintf("http://w%d.simtest/p%d", g, i), 10+i, 200))
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				a.Snapshots("http://news.simtest/2014/a.html")
				a.CDXCount(CDXQuery{Host: "news.simtest"})
			}
		}()
	}
	wg.Wait()
}

func TestWriteAfterFreezePanics(t *testing.T) {
	cases := []struct {
		name  string
		write func(a *Archive)
	}{
		{"Add", func(a *Archive) { a.Add(snap("http://x.simtest/p", 10, 200)) }},
		{"AddBulkCoverage", func(a *Archive) {
			a.AddBulkCoverage(BulkRegion{Host: "x.simtest", DirPrefix: "/a/", Count: 5, FirstDay: d(10), LastDay: d(20)})
		}},
		{"SetLookupLatency", func(a *Archive) { a.SetLookupLatency("http://x.simtest/p", time.Second) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a := New()
			a.Freeze()
			defer func() {
				if recover() == nil {
					t.Errorf("%s after Freeze did not panic", c.name)
				}
			}()
			c.write(a)
		})
	}
}

// TestMemoEntryCap checks a capped memo stays within its per-map bound
// under a query stream of many distinct keys, counts evictions, and
// keeps returning correct values for evicted (recomputed) entries.
func TestMemoEntryCap(t *testing.T) {
	a := New()
	for i := 0; i < 32; i++ {
		a.Add(snap(fmt.Sprintf("http://h%02d.simtest/p", 10+i), 10+i, 200))
	}
	a.Freeze()

	const cap = 8
	m := NewMemoCapped(a, cap)
	for i := 0; i < 32; i++ {
		q := CDXQuery{Host: fmt.Sprintf("h%02d.simtest", 10+i), Status: 200}
		if got, want := m.CDXCount(q), a.CDXCount(q); got != want {
			t.Fatalf("CDXCount(%v) = %d, want %d", q, got, want)
		}
	}
	st := m.Stats()
	if st.Evictions != 32-cap {
		t.Errorf("Evictions = %d, want %d", st.Evictions, 32-cap)
	}
	if st.Entries > cap {
		t.Errorf("Entries = %d, exceeds cap %d", st.Entries, cap)
	}
	// Evicted keys still answer correctly (recomputed, counted as a
	// fresh miss — never a wrong value).
	q := CDXQuery{Host: "h10.simtest", Status: 200}
	if got, want := m.CDXCount(q), a.CDXCount(q); got != want {
		t.Errorf("post-eviction CDXCount = %d, want %d", got, want)
	}

	// An unbounded memo never evicts.
	u := NewMemo(a)
	for i := 0; i < 32; i++ {
		u.CDXCount(CDXQuery{Host: fmt.Sprintf("h%02d.simtest", 10+i), Status: 200})
	}
	if st := u.Stats(); st.Evictions != 0 || st.Entries != 32 {
		t.Errorf("unbounded memo: evictions=%d entries=%d, want 0/32", st.Evictions, st.Entries)
	}
}
