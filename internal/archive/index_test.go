package archive

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"permadead/internal/urlutil"
)

// randomWorld builds two archives with an identical randomized capture
// history — hosts sharing registrable domains, directory structure,
// duplicate paths, query-bearing URLs, mixed statuses, bulk regions —
// and freezes only one, so the frozen indexed path can be compared
// against the retained naive-scan reference query for query.
type randomWorld struct {
	naive  *Archive // mutable: read through the naive scans (naive_test.go)
	frozen *Archive // frozen: freeze-time indexed path
	hosts  []string
	paths  []string // pathQuery pool used during generation
}

func generateRandomWorld(rng *rand.Rand) *randomWorld {
	w := &randomWorld{naive: New(), frozen: New()}

	nDomains := 2 + rng.Intn(4)
	for d := 0; d < nDomains; d++ {
		domain := fmt.Sprintf("dom%d.simtest", d)
		for _, sub := range []string{"", "www.", "news.", "blog."}[:1+rng.Intn(4)] {
			w.hosts = append(w.hosts, sub+domain)
		}
	}

	dirs := []string{"/", "/a/", "/a/b/", "/ab/", "/news/2014/", "/x/"}
	leaves := []string{"p.html", "q.html", "r", "item?b=2&a=1", "item?a=1&b=2", "item?a=1&c=3", ""}
	statuses := []int{200, 200, 200, 404, 301, 302, 503}

	add := func(s Snapshot) {
		w.naive.Add(s)
		w.frozen.Add(s)
	}
	nSnaps := 50 + rng.Intn(150)
	for i := 0; i < nSnaps; i++ {
		host := w.hosts[rng.Intn(len(w.hosts))]
		path := dirs[rng.Intn(len(dirs))] + leaves[rng.Intn(len(leaves))]
		w.paths = append(w.paths, path)
		add(Snapshot{
			URL:           "http://" + host + path,
			Day:           d(rng.Intn(5000)),
			InitialStatus: statuses[rng.Intn(len(statuses))],
			FinalStatus:   200,
		})
	}
	nBulk := rng.Intn(4)
	for i := 0; i < nBulk; i++ {
		r := BulkRegion{
			Host:      w.hosts[rng.Intn(len(w.hosts))],
			DirPrefix: dirs[rng.Intn(len(dirs))],
			Count:     1 + rng.Intn(500),
			FirstDay:  d(100), LastDay: d(4000),
			Seed: rng.Uint64(),
		}
		w.naive.AddBulkCoverage(r)
		w.frozen.AddBulkCoverage(r)
	}

	w.frozen.Freeze()
	return w
}

// randomQuery draws a CDX query biased toward the shapes the study
// issues (host-wide, directory prefix, exact path, status-filtered).
func (w *randomWorld) randomQuery(rng *rand.Rand) CDXQuery {
	q := CDXQuery{Host: w.hosts[rng.Intn(len(w.hosts))]}
	switch rng.Intn(4) {
	case 1:
		q.PathPrefix = []string{"/", "/a/", "/a/b/", "/news/2014/", "/x/", "/missing/"}[rng.Intn(6)]
	case 2:
		q.PathPrefix = w.paths[rng.Intn(len(w.paths))] // exact-path-as-prefix
	case 3:
		q.PathPrefix = "/a"
	}
	switch rng.Intn(4) {
	case 1:
		q.Status = 200
	case 2:
		q.Status = 404
	case 3:
		q.Status = []int{301, 302, 503, 418}[rng.Intn(4)]
	}
	if rng.Intn(3) == 0 {
		q.Limit = 1 + rng.Intn(40)
	}
	return q
}

// checkQueries compares every query kind between the frozen indexed
// path and the naive reference on one world.
func (w *randomWorld) checkQueries(t *testing.T, rng *rand.Rand) {
	t.Helper()
	for i := 0; i < 60; i++ {
		q := w.randomQuery(rng)
		if got, want := w.frozen.CDXCount(q), naiveCDXCount(w.naive, q); got != want {
			t.Errorf("CDXCount(%+v) = %d, want %d", q, got, want)
		}
		got, want := w.frozen.CDXList(q), naiveCDXList(w.naive, q)
		if len(got) != len(want) {
			t.Errorf("CDXList(%+v) = %d rows, want %d", q, len(got), len(want))
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("CDXList(%+v) rows differ:\n got %v\nwant %v", q, got, want)
		}
	}
	for i := 0; i < 40; i++ {
		host := w.hosts[rng.Intn(len(w.hosts))]
		path := w.paths[rng.Intn(len(w.paths))]
		if got, want := w.frozen.countSelf(host, path), naiveCountSelf(w.naive, host, path); got != want {
			t.Errorf("countSelf(%s, %s) = %d, want %d", host, path, got, want)
		}
		url := "http://" + host + path
		if got, want := w.frozen.CountInDirectory(url), naiveCountInDirectory(w.naive, url); got != want {
			t.Errorf("CountInDirectory(%s) = %d, want %d", url, got, want)
		}
		if got, want := w.frozen.CountOnHostname(url), naiveCountOnHostname(w.naive, url); got != want {
			t.Errorf("CountOnHostname(%s) = %d, want %d", url, got, want)
		}
	}
	for i := 0; i < 20; i++ {
		domain := urlutil.DomainOfHost(w.hosts[rng.Intn(len(w.hosts))])
		limit := 1 + rng.Intn(80)
		gotURLs, gotTrunc := w.frozen.DomainURLs(domain, limit)
		wantURLs, wantTrunc := naiveDomainURLs(w.naive, domain, limit)
		if gotTrunc != wantTrunc || !reflect.DeepEqual(gotURLs, wantURLs) {
			t.Errorf("DomainURLs(%s, %d) = %v/%v, want %v/%v",
				domain, limit, gotURLs, gotTrunc, wantURLs, wantTrunc)
		}
	}
	for i := 0; i < 40; i++ {
		host := w.hosts[rng.Intn(len(w.hosts))]
		probe := "http://" + host + []string{
			"/a/item?a=1&b=2", "/a/item?b=2&a=1", "/x/item?c=3&a=1",
			"/news/2014/item?a=1&c=3", "/a/b/plain.html",
		}[rng.Intn(5)]
		gotURL, gotOK := w.frozen.FindQueryPermutation(probe)
		wantURL, wantOK := naiveFindQueryPermutation(w.naive, probe)
		if gotURL != wantURL || gotOK != wantOK {
			t.Errorf("FindQueryPermutation(%s) = %q/%v, want %q/%v",
				probe, gotURL, gotOK, wantURL, wantOK)
		}
	}
}

// TestFrozenIndexMatchesNaiveScan is the differential test: across
// randomized generated worlds, the frozen indexed results must be
// identical — row for row — to the naive-scan reference for all five
// query kinds (CDXCount, CDXList, countSelf, DomainURLs,
// FindQueryPermutation).
func TestFrozenIndexMatchesNaiveScan(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			w := generateRandomWorld(rng)
			w.checkQueries(t, rng)
		})
	}
}

// TestFrozenIndexMatchesNaiveScanConcurrent runs the same comparison
// from many goroutines at once; under -race this also enforces the
// frozen lock-free read contract on the index structures.
func TestFrozenIndexMatchesNaiveScanConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	w := generateRandomWorld(rng)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.checkQueries(t, rand.New(rand.NewSource(int64(1000+g))))
		}()
	}
	wg.Wait()
}

// TestCDXListFrozenAllocs pins the per-call allocation budget of the
// frozen CDXList path: one selection slice plus one preallocated
// output slice, with row URLs served from the freeze-time backing
// string rather than rebuilt per row.
func TestCDXListFrozenAllocs(t *testing.T) {
	a := New()
	for i := 0; i < 2000; i++ {
		a.Add(snap(fmt.Sprintf("http://alloc.simtest/dir%d/p%04d.html", i%8, i), 10+i%900, 200))
	}
	a.Freeze()

	q := CDXQuery{Host: "alloc.simtest", PathPrefix: "/dir3/", Status: 200, Limit: 100}
	if n := len(a.CDXList(q)); n != 100 {
		t.Fatalf("list = %d rows, want 100", n)
	}
	allocs := testing.AllocsPerRun(100, func() {
		a.CDXList(q)
	})
	if allocs > 2 {
		t.Errorf("CDXList allocs/op = %.1f, want <= 2", allocs)
	}

	// The whole-host form needs only the output slice.
	allocs = testing.AllocsPerRun(100, func() {
		a.CDXList(CDXQuery{Host: "alloc.simtest", Limit: 100})
	})
	if allocs > 1 {
		t.Errorf("whole-host CDXList allocs/op = %.1f, want <= 1", allocs)
	}
}

// TestCDXIndexAllocs pins the index queries that allocate nothing on
// the in-memory backing: counts, the self-capture count, and a
// query-key miss. A status-only listing walks ranks in order and needs
// only its output slice. internal/persist pins the paged backing.
func TestCDXIndexAllocs(t *testing.T) {
	a := New()
	for i := 0; i < 2000; i++ {
		a.Add(snap(fmt.Sprintf("http://alloc.simtest/dir%d/p%04d.html", i%8, i), 10+i%900, 200))
	}
	a.Add(snap("http://alloc.simtest/v?b=1&a=2", 10, 200))
	a.Freeze()
	for _, c := range []struct {
		name string
		fn   func()
		max  float64
	}{
		{"CDXCount", func() { a.CDXCount(CDXQuery{Host: "alloc.simtest", PathPrefix: "/dir3/", Status: 200}) }, 0},
		{"countSelf", func() { a.countSelf("alloc.simtest", "/dir3/p0003.html") }, 0},
		{"CountInDirectory", func() { a.CountInDirectory("http://alloc.simtest/dir3/p0003.html") }, 0},
		{"findPermutation miss", func() { a.cdx.findPermutation("alloc.simtest", "alloc.simtest/v?c=1", "self") }, 0},
		{"status-only CDXList", func() { a.CDXList(CDXQuery{Host: "alloc.simtest", Status: 200, Limit: 100}) }, 1},
	} {
		if got := testing.AllocsPerRun(100, c.fn); got > c.max {
			t.Errorf("%s allocs/op = %.1f, want <= %.0f", c.name, got, c.max)
		}
	}
}
