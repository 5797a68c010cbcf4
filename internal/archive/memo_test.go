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

// TestMemoMatchesArchive checks every memoized candidate set holds
// exactly the scheme-stripped Archive.DomainURLs listing, with the same
// truncation flag, on first and repeat use.
func TestMemoMatchesArchive(t *testing.T) {
	a := coverageFixture()
	a.Freeze()
	m := NewMemo(a)

	domains := []string{"news.simtest", "elsewhere.simtest", "none.simtest"}
	for pass := 0; pass < 2; pass++ {
		for _, domain := range domains {
			for _, limit := range []int{1, 3, 100} {
				set := m.DomainCandidates(domain, limit)
				gotURLs, gotTrunc := members(set), set.Truncated()
				wantURLs, wantTrunc := strippedDomainURLs(a, domain, limit)
				if gotTrunc != wantTrunc || fmt.Sprint(gotURLs) != fmt.Sprint(wantURLs) {
					t.Errorf("pass %d DomainCandidates(%s, %d) = %v/%v, want %v/%v",
						pass, domain, limit, gotURLs, gotTrunc, wantURLs, wantTrunc)
				}
			}
		}
	}
}

// TestMemoCountsHits asserts the memo actually collapses repeat
// enumerations: one miss per distinct (domain, limit), and the second
// pass over the same keys is all hits returning the resident sets.
func TestMemoCountsHits(t *testing.T) {
	a := coverageFixture()
	a.Freeze()
	m := NewMemo(a)

	keys := []domainLimit{{"news.simtest", 50}, {"news.simtest", 2}, {"elsewhere.simtest", 50}}
	first := make([]*CandidateSet, len(keys))
	for i, k := range keys {
		first[i] = m.DomainCandidates(k.domain, k.limit)
	}
	if st := m.Stats(); st.Misses != int64(len(keys)) || st.Hits != 0 || st.Entries != len(keys) {
		t.Fatalf("first pass: misses/hits/entries = %d/%d/%d, want %d/0/%d",
			st.Misses, st.Hits, st.Entries, len(keys), len(keys))
	}
	for i, k := range keys {
		if m.DomainCandidates(k.domain, k.limit) != first[i] {
			t.Errorf("repeat DomainCandidates(%s, %d) rebuilt its set", k.domain, k.limit)
		}
	}
	if st := m.Stats(); st.Misses != int64(len(keys)) || st.Hits != int64(len(keys)) {
		t.Errorf("repeat pass: misses/hits = %d/%d, want %d/%d",
			st.Misses, st.Hits, len(keys), len(keys))
	}
}

func TestDomainURLsTruncation(t *testing.T) {
	a := New()
	for i := 0; i < 10; i++ {
		a.Add(snap(fmt.Sprintf("http://big.simtest/page-%02d", i), 10+i, 200))
	}
	a.Freeze()

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
// shared memo over it) from many goroutines with every read the study
// makes; run with -race this enforces the package's concurrency
// contract.
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
				a.CountOnHostname("http://blog.news.simtest/post-1")
				a.CDXList(CDXQuery{Host: "news.simtest", PathPrefix: "/2014/", Limit: 500})
				a.SnapshotsBetween("http://news.simtest/2014/a.html", d(0), d(100))
				a.FindQueryPermutation("http://news.simtest/2014/a.html?b=1&a=2")
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
				a.Closest("http://news.simtest/2014/b.html", d(11), AcceptUsable)
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

// TestWholeArchiveReadBeforeFreezePanics: every whole-archive read
// answers from the frozen sections only, so on an unfrozen archive it
// panics through checkFrozen (a missing guard shows as a nil-index
// fault instead), while the point reads IABot makes during generation
// still answer. AddBulkCoverage rejects a host holding '/', which the
// typo probe's candidate sets rely on never seeing.
func TestWholeArchiveReadBeforeFreezePanics(t *testing.T) {
	const url = "http://news.simtest/2014/a.html"
	cases := []struct {
		name string
		op   func(a *Archive)
		want string
	}{
		{"CDXCount", func(a *Archive) { a.CDXCount(CDXQuery{Host: "news.simtest"}) }, "CDXCount before Freeze"},
		{"CDXList", func(a *Archive) { a.CDXList(CDXQuery{Host: "news.simtest"}) }, "CDXList before Freeze"},
		{"countSelf", func(a *Archive) { a.countSelf("news.simtest", "/2014/a.html") }, "countSelf before Freeze"},
		{"domainHosts", func(a *Archive) { a.domainHosts("news.simtest") }, "domainHosts before Freeze"},
		{"FindQueryPermutation", func(a *Archive) { a.FindQueryPermutation(url + "?b=1&a=2") }, "FindQueryPermutation before Freeze"},
		{"TotalSnapshots", func(a *Archive) { a.TotalSnapshots() }, "TotalSnapshots before Freeze"},
		{"Hosts", func(a *Archive) { a.Hosts() }, "Hosts before Freeze"},
		{"EachSnapshot", func(a *Archive) { a.EachSnapshot(func(Snapshot) {}) }, "EachSnapshot before Freeze"},
		{"EachBulkRegion", func(a *Archive) { a.EachBulkRegion(func(BulkRegion) {}) }, "EachBulkRegion before Freeze"},
		{"AddBulkCoverage with a '/' host", func(a *Archive) {
			a.AddBulkCoverage(BulkRegion{Host: "x.simtest/y", DirPrefix: "/", Count: 3, FirstDay: d(10), LastDay: d(20)})
		}, "AddBulkCoverage host x.simtest/y contains '/'"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a := coverageFixture()
			defer func() {
				if r := recover(); r != "archive: "+c.want {
					t.Errorf("%s panicked with %v, want %q", c.name, r, "archive: "+c.want)
				}
			}()
			c.op(a)
		})
	}

	a := coverageFixture()
	if n := len(a.Snapshots(url)); n != 1 {
		t.Errorf("Snapshots = %d rows, want 1", n)
	}
	if n := len(a.SnapshotsBetween(url, d(0), d(100))); n != 1 {
		t.Errorf("SnapshotsBetween = %d rows, want 1", n)
	}
	if s, ok := a.First(url); !ok || s.Day != d(10) {
		t.Errorf("First = %v/%v, want day 10", s.Day, ok)
	}
	if s, ok := a.FirstAfter(url, d(5)); !ok || s.Day != d(10) {
		t.Errorf("FirstAfter = %v/%v, want day 10", s.Day, ok)
	}
	if s, ok := a.Closest(url, d(50), AcceptUsable); !ok || s.Day != d(10) {
		t.Errorf("Closest = %v/%v, want day 10", s.Day, ok)
	}
	if s, ok, err := a.Query(AvailabilityQuery{URL: url, Want: d(50), Timeout: time.Second}); err != nil || !ok || s.Day != d(10) {
		t.Errorf("Query = %v/%v/%v, want day 10", s.Day, ok, err)
	}
}

// TestMemoEntryCap checks a capped memo stays within its bound under a
// stream of more domains than the cap, counts one eviction per insert
// past the cap, and rebuilds an evicted domain's set correctly.
func TestMemoEntryCap(t *testing.T) {
	const domains, cap = 32, 8
	a := New()
	for i := 0; i < domains; i++ {
		for j := 0; j <= i%3; j++ {
			a.Add(snap(fmt.Sprintf("http://h%02d.simtest/p%d", 10+i, j), 10+i, 200))
		}
	}
	a.Freeze()
	check := func(m *Memo, domain string) {
		t.Helper()
		set := m.DomainCandidates(domain, 100)
		got := members(set)
		want, _ := strippedDomainURLs(a, domain, 100)
		if fmt.Sprint(got) != fmt.Sprint(want) || set.Truncated() {
			t.Errorf("DomainCandidates(%s) = %v/%v, want %v/false", domain, got, set.Truncated(), want)
		}
	}

	m := NewMemoCapped(a, cap)
	for i := 0; i < domains; i++ {
		check(m, fmt.Sprintf("h%02d.simtest", 10+i))
		if st := m.Stats(); st.Entries > cap {
			t.Fatalf("after %d domains Entries = %d, exceeds cap %d", i+1, st.Entries, cap)
		}
	}
	st := m.Stats()
	if st.Evictions != domains-cap || st.Misses != domains {
		t.Errorf("Evictions/Misses = %d/%d, want %d/%d", st.Evictions, st.Misses, domains-cap, domains)
	}
	// Evicted domains still answer correctly: rebuilt, counted as a
	// fresh miss — never a wrong or stale set.
	for i := 0; i < domains; i += 5 {
		check(m, fmt.Sprintf("h%02d.simtest", 10+i))
	}
	if st := m.Stats(); st.Entries > cap {
		t.Errorf("Entries = %d after rebuilds, exceeds cap %d", st.Entries, cap)
	}

	// An unbounded memo never evicts.
	u := NewMemo(a)
	for i := 0; i < domains; i++ {
		u.DomainCandidates(fmt.Sprintf("h%02d.simtest", 10+i), 100)
	}
	if st := u.Stats(); st.Evictions != 0 || st.Entries != domains {
		t.Errorf("unbounded memo: evictions=%d entries=%d, want 0/%d", st.Evictions, st.Entries, domains)
	}
}
