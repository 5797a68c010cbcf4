package archive

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"permadead/internal/hashx"
	"permadead/internal/simclock"
)

func d(n int) simclock.Day { return simclock.Day(n) }

func snap(url string, day int, status int) Snapshot {
	return Snapshot{URL: url, Day: d(day), InitialStatus: status, FinalStatus: status}
}

func TestAddAndSnapshotsSorted(t *testing.T) {
	a := New()
	a.Add(snap("http://h.simtest/p", 300, 200))
	a.Add(snap("http://h.simtest/p", 100, 200))
	a.Add(snap("http://h.simtest/p", 200, 404))
	snaps := a.Snapshots("http://h.simtest/p")
	if len(snaps) != 3 {
		t.Fatalf("snaps = %d", len(snaps))
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i-1].Day > snaps[i].Day {
			t.Error("snapshots not sorted by day")
		}
	}
	if n := naiveTotalSnapshots(a); n != 3 {
		t.Errorf("total = %d", n)
	}
}

func TestSchemeAgnosticLookup(t *testing.T) {
	a := New()
	a.Add(snap("http://www.h.simtest/p", 100, 200))
	if len(a.Snapshots("https://h.simtest/p")) != 1 {
		t.Error("scheme/www variants should share snapshots")
	}
}

func TestFirstAndFirstAfter(t *testing.T) {
	a := New()
	a.Add(snap("http://h.simtest/p", 100, 404))
	a.Add(snap("http://h.simtest/p", 200, 200))
	first, ok := a.First("http://h.simtest/p")
	if !ok || first.Day != d(100) {
		t.Errorf("first = %+v, %v", first, ok)
	}
	after, ok := a.FirstAfter("http://h.simtest/p", d(150))
	if !ok || after.Day != d(200) {
		t.Errorf("firstAfter = %+v, %v", after, ok)
	}
	if _, ok := a.FirstAfter("http://h.simtest/p", d(201)); ok {
		t.Error("no snapshot after 201")
	}
	if _, ok := a.First("http://none.simtest/"); ok {
		t.Error("unknown URL should have no first")
	}
}

func TestSnapshotsBetween(t *testing.T) {
	a := New()
	for _, day := range []int{100, 200, 300, 400} {
		a.Add(snap("http://h.simtest/p", day, 200))
	}
	got := a.SnapshotsBetween("http://h.simtest/p", d(150), d(400))
	if len(got) != 2 || got[0].Day != d(200) || got[1].Day != d(300) {
		t.Errorf("between = %+v", got)
	}
}

func TestClosest(t *testing.T) {
	a := New()
	a.Add(snap("http://h.simtest/p", 100, 404))
	a.Add(snap("http://h.simtest/p", 200, 200))
	a.Add(snap("http://h.simtest/p", 500, 200))

	got, ok := a.Closest("http://h.simtest/p", d(210), nil)
	if !ok || got.Day != d(200) {
		t.Errorf("closest any = %+v", got)
	}
	got, ok = a.Closest("http://h.simtest/p", d(90), AcceptUsable)
	if !ok || got.Day != d(200) {
		t.Errorf("closest usable = %+v", got)
	}
	_, ok = a.Closest("http://h.simtest/p", d(100), func(s Snapshot) bool { return s.InitialStatus == 503 })
	if ok {
		t.Error("no 503 snapshot exists")
	}
}

func TestAvailabilityQuery(t *testing.T) {
	a := New()
	a.Add(snap("http://h.simtest/p", 100, 200))
	a.Add(snap("http://h.simtest/p", 900, 200))

	// Before-filter: only copies strictly before day 500.
	got, ok, err := a.Query(AvailabilityQuery{
		URL: "http://h.simtest/p", Want: d(800), Before: d(500), Accept: AcceptUsable,
	})
	if err != nil || !ok || got.Day != d(100) {
		t.Errorf("query = %+v, %v, %v", got, ok, err)
	}
	// No timeout by default.
	if _, _, err := a.Query(AvailabilityQuery{URL: "http://h.simtest/p", Want: d(100)}); err != nil {
		t.Errorf("unexpected err: %v", err)
	}
}

func TestAvailabilityTimeout(t *testing.T) {
	a := New()
	a.Add(snap("http://slow.simtest/p", 100, 200))
	a.SetLookupLatency("http://slow.simtest/p", 8*time.Second)

	_, _, err := a.Query(AvailabilityQuery{
		URL: "http://slow.simtest/p", Want: d(100), Timeout: 3 * time.Second,
	})
	if err != ErrAvailabilityTimeout {
		t.Errorf("err = %v, want timeout", err)
	}
	// Without a timeout the copy is found.
	got, ok, err := a.Query(AvailabilityQuery{URL: "http://slow.simtest/p", Want: d(100)})
	if err != nil || !ok || got.Day != d(100) {
		t.Errorf("untimed query = %+v, %v, %v", got, ok, err)
	}
	// Latency is keyed scheme-agnostically.
	if a.LookupLatency("https://www.slow.simtest/p") != 8*time.Second {
		t.Error("latency lookup should be scheme-agnostic")
	}
	if a.LookupLatency("http://other.simtest/") != DefaultLookupLatency {
		t.Error("default latency expected")
	}
}

func TestWaybackURL(t *testing.T) {
	s := snap("http://h.simtest/p", 0, 200)
	got := s.WaybackURL()
	if !strings.HasPrefix(got, "https://web.archive.org/web/20040101000000/http://h.simtest/p") {
		t.Errorf("wayback url = %q", got)
	}
}

func TestCDXCountAndList(t *testing.T) {
	a := New()
	a.Add(snap("http://h.simtest/dir/a.html", 100, 200))
	a.Add(snap("http://h.simtest/dir/b.html", 110, 200))
	a.Add(snap("http://h.simtest/dir/c.html", 120, 404))
	a.Add(snap("http://h.simtest/other/x.html", 130, 200))
	a.Freeze()

	if n := a.CDXCount(CDXQuery{Host: "h.simtest"}); n != 4 {
		t.Errorf("host count = %d", n)
	}
	if n := a.CDXCount(CDXQuery{Host: "h.simtest", Status: 200}); n != 3 {
		t.Errorf("host 200 count = %d", n)
	}
	if n := a.CDXCount(CDXQuery{Host: "h.simtest", PathPrefix: "/dir/", Status: 200}); n != 2 {
		t.Errorf("dir 200 count = %d", n)
	}
	if n := a.CDXCount(CDXQuery{Host: "unknown.simtest"}); n != 0 {
		t.Errorf("unknown host count = %d", n)
	}
	list := a.CDXList(CDXQuery{Host: "h.simtest", PathPrefix: "/dir/", Status: 200})
	if len(list) != 2 {
		t.Errorf("list = %+v", list)
	}
	limited := a.CDXList(CDXQuery{Host: "h.simtest", Limit: 2})
	if len(limited) != 2 {
		t.Errorf("limited list = %d", len(limited))
	}
}

// TestPathAtMatchesSprintf holds the strconv/append name formatting to
// the fmt form it replaced, across the %06d width boundary, and the
// enumerated URL to "http://" + host + PathAt.
func TestPathAtMatchesSprintf(t *testing.T) {
	for _, seed := range []uint64{42, 0xdeadbeefcafef00d} {
		r := BulkRegion{
			Host: "big.simtest", DirPrefix: "/news/2014/", Count: 12,
			FirstDay: d(100), LastDay: d(5000), Seed: seed,
		}
		for _, i := range []int{0, 9, 10, 999999, 1000000, 12345678} {
			v := hashx.Mix64(r.Seed + uint64(i)*hashx.Golden)
			want := fmt.Sprintf("%sitem-%06d-%04x.html", r.DirPrefix, i, v&0xffff)
			if got := r.PathAt(i); got != want {
				t.Errorf("seed %#x: PathAt(%d) = %q, want %q", seed, i, got, want)
			}
		}
		rows := appendBulk(nil, r, CDXQuery{Host: r.Host}, r.Count)
		if len(rows) != r.Count {
			t.Fatalf("seed %#x: appendBulk gave %d rows, want %d", seed, len(rows), r.Count)
		}
		for i, e := range rows {
			if want := "http://" + r.Host + r.PathAt(i); e.URL != want {
				t.Errorf("seed %#x: row %d URL = %q, want %q", seed, i, e.URL, want)
			}
		}
	}
}

func TestBulkCoverage(t *testing.T) {
	a := New()
	a.AddBulkCoverage(BulkRegion{
		Host: "big.simtest", DirPrefix: "/news/", Count: 50000,
		FirstDay: d(100), LastDay: d(5000), Seed: 42,
	})
	a.Freeze()
	if n := a.CDXCount(CDXQuery{Host: "big.simtest", Status: 200}); n != 50000 {
		t.Errorf("bulk count = %d", n)
	}
	if n := a.CDXCount(CDXQuery{Host: "big.simtest", PathPrefix: "/news/", Status: 200}); n != 50000 {
		t.Errorf("bulk dir count = %d", n)
	}
	if n := a.CDXCount(CDXQuery{Host: "big.simtest", PathPrefix: "/other/"}); n != 0 {
		t.Errorf("non-matching prefix count = %d", n)
	}
	// 404-filtered queries exclude bulk regions (all bulk is 200).
	if n := a.CDXCount(CDXQuery{Host: "big.simtest", Status: 404}); n != 0 {
		t.Errorf("bulk 404 count = %d", n)
	}
	// Enumeration is lazy and bounded.
	list := a.CDXList(CDXQuery{Host: "big.simtest", Limit: 100})
	if len(list) != 100 {
		t.Errorf("bulk list len = %d", len(list))
	}
	if !strings.HasPrefix(list[0].URL, "http://big.simtest/news/item-") {
		t.Errorf("bulk url = %q", list[0].URL)
	}
	// Deterministic.
	list2 := a.CDXList(CDXQuery{Host: "big.simtest", Limit: 100})
	if list[50] != list2[50] {
		t.Error("bulk enumeration should be deterministic")
	}
	// Days within range.
	for _, e := range list {
		if e.Day < d(100) || e.Day > d(5000) {
			t.Errorf("bulk day %v out of range", e.Day)
		}
	}
}

func TestBulkRegionNormalization(t *testing.T) {
	a := New()
	a.AddBulkCoverage(BulkRegion{Host: "N.simtest", DirPrefix: "dir", Count: 5, FirstDay: d(1), LastDay: d(2)})
	// Zero-count regions are dropped.
	a.AddBulkCoverage(BulkRegion{Host: "n.simtest", DirPrefix: "/x/", Count: 0})
	a.Freeze()
	if n := a.CDXCount(CDXQuery{Host: "n.simtest", PathPrefix: "/dir/"}); n != 5 {
		t.Errorf("normalized bulk count = %d", n)
	}
	if n := a.CDXCount(CDXQuery{Host: "n.simtest", PathPrefix: "/x/"}); n != 0 {
		t.Errorf("zero bulk count = %d", n)
	}
}

func TestCountInDirectoryAndHostname(t *testing.T) {
	a := New()
	// The dead URL itself has a capture, which must be excluded.
	a.Add(snap("http://h.simtest/dir/dead.html", 50, 200))
	a.Add(snap("http://h.simtest/dir/a.html", 100, 200))
	a.Add(snap("http://h.simtest/dir/b.html", 110, 200))
	a.Add(snap("http://h.simtest/elsewhere/c.html", 120, 200))
	a.Add(snap("http://h.simtest/dir/broken.html", 130, 404))
	a.Freeze()

	url := "http://h.simtest/dir/dead.html"
	if n := a.CountInDirectory(url); n != 2 {
		t.Errorf("dir count = %d, want 2", n)
	}
	if n := a.CountOnHostname(url); n != 3 {
		t.Errorf("host count = %d, want 3", n)
	}
	// URL with no archived siblings at all.
	if n := a.CountInDirectory("http://empty.simtest/d/x.html"); n != 0 {
		t.Errorf("empty dir count = %d", n)
	}
}

func TestArchivedURLsUnderDomain(t *testing.T) {
	a := New()
	a.Add(snap("http://www.ex.simtest/a.html", 100, 200))
	a.Add(snap("http://news.ex.simtest/b.html", 100, 200))
	a.Add(snap("http://other.simtest/c.html", 100, 200))
	a.Freeze()

	got, _ := a.DomainURLs("ex.simtest", 0)
	if len(got) != 2 {
		t.Fatalf("domain urls = %v", got)
	}
	for _, u := range got {
		if !strings.Contains(u, "ex.simtest") {
			t.Errorf("unexpected url %q", u)
		}
	}
	if got, _ := a.DomainURLs("ex.simtest", 1); len(got) != 1 {
		t.Errorf("limit ignored: %v", got)
	}
}

func TestHosts(t *testing.T) {
	a := New()
	a.Add(snap("http://b.simtest/x", 1, 200))
	a.Add(snap("http://a.simtest/y", 1, 200))
	a.Freeze()
	hs := a.Hosts()
	if len(hs) != 2 || hs[0] != "a.simtest" || hs[1] != "b.simtest" {
		t.Errorf("hosts = %v", hs)
	}
}

func TestFindQueryPermutation(t *testing.T) {
	a := New()
	a.Add(snap("http://q.simtest/view.asp?b=2&a=1", 100, 200))
	a.Add(snap("http://q.simtest/plain.html", 100, 200))
	a.Freeze()

	// Same params, different order: rescuable.
	got, ok := a.FindQueryPermutation("http://q.simtest/view.asp?a=1&b=2")
	if !ok || got != "http://q.simtest/view.asp?b=2&a=1" {
		t.Errorf("permutation = %q, %v", got, ok)
	}
	// The URL itself (same order) does not count as a permutation.
	if _, ok := a.FindQueryPermutation("http://q.simtest/view.asp?b=2&a=1"); ok {
		t.Error("identical URL should not match itself")
	}
	// Different values never match.
	if _, ok := a.FindQueryPermutation("http://q.simtest/view.asp?a=9&b=2"); ok {
		t.Error("different values matched")
	}
	// Query-less URLs are skipped.
	if _, ok := a.FindQueryPermutation("http://q.simtest/plain.html"); ok {
		t.Error("query-less URL matched")
	}
	// Unknown host.
	if _, ok := a.FindQueryPermutation("http://none.simtest/x?a=1&b=2"); ok {
		t.Error("unknown host matched")
	}
}

func TestEachAccessors(t *testing.T) {
	a := New()
	a.Add(snap("http://e.simtest/a", 10, 200))
	a.Add(snap("http://e.simtest/a", 20, 404))
	a.Add(snap("http://e.simtest/b", 30, 200))
	a.AddBulkCoverage(BulkRegion{Host: "e.simtest", DirPrefix: "/bulk/", Count: 5, FirstDay: d(1), LastDay: d(2)})
	a.SetLookupLatency("http://e.simtest/a", 5*time.Second)

	// Mutable through the naive scans, then from the sections Freeze
	// builds.
	eachSnapshot, eachBulkRegion := naiveEachSnapshot, naiveEachBulkRegion
	for _, frozen := range []bool{false, true} {
		if frozen {
			a.Freeze()
			eachSnapshot, eachBulkRegion = (*Archive).EachSnapshot, (*Archive).EachBulkRegion
		}
		snapsSeen := 0
		eachSnapshot(a, func(Snapshot) { snapsSeen++ })
		if snapsSeen != 3 {
			t.Errorf("frozen=%v: EachSnapshot saw %d", frozen, snapsSeen)
		}
		bulkSeen := 0
		eachBulkRegion(a, func(r BulkRegion) {
			bulkSeen++
			if r.Count != 5 {
				t.Errorf("frozen=%v: bulk region %+v", frozen, r)
			}
		})
		if bulkSeen != 1 {
			t.Errorf("frozen=%v: EachBulkRegion saw %d", frozen, bulkSeen)
		}
		// The override is keyed by the URL's scheme-agnostic key, so any
		// scheme/www spelling finds it.
		if got := a.LookupLatency("https://www.e.simtest/a"); got != 5*time.Second {
			t.Errorf("frozen=%v: LookupLatency = %v, want 5s", frozen, got)
		}
	}
}

// Property: snapshots stay day-sorted under random insertion order.
func TestSnapshotsSortedProperty(t *testing.T) {
	prop := func(days []uint16) bool {
		a := New()
		for _, dd := range days {
			a.Add(snap("http://p.simtest/x", int(dd%6000), 200))
		}
		snaps := a.Snapshots("http://p.simtest/x")
		if len(snaps) != len(days) {
			return false
		}
		for i := 1; i < len(snaps); i++ {
			if snaps[i-1].Day > snaps[i].Day {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestReadsAcrossFreeze reads from several goroutines while Freeze runs.
// A reader that waited on the lock while Freeze built the sections and
// dropped the maps must answer from the sections, with the answers it
// would have had before. Run it under -race.
func TestReadsAcrossFreeze(t *testing.T) {
	for round := 0; round < 20; round++ {
		a := New()
		for i := 0; i < 400; i++ {
			a.Add(snap(fmt.Sprintf("http://f.simtest/p%d", i%40), 10+i, 200))
		}
		a.SetLookupLatency("http://f.simtest/p3", 5*time.Second)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < 400; i++ {
					u := fmt.Sprintf("http://f.simtest/p%d", i%40)
					if n := len(a.Snapshots(u)); n != 10 {
						t.Errorf("round %d: Snapshots(%s) = %d rows, want 10", round, u, n)
						return
					}
					if s, ok := a.Closest(u, d(10), nil); !ok || s.Day != d(10+i%40) {
						t.Errorf("round %d: Closest(%s) = %v/%v, want day %d", round, u, s.Day, ok, 10+i%40)
						return
					}
					if want := map[bool]time.Duration{true: 5 * time.Second, false: DefaultLookupLatency}[i%40 == 3]; a.LookupLatency(u) != want {
						t.Errorf("round %d: LookupLatency(%s) = %v, want %v", round, u, a.LookupLatency(u), want)
						return
					}
					a.MightHaveCaptures(u)
					a.PrefilterStats()
				}
			}()
		}
		close(start)
		a.Freeze()
		wg.Wait()
	}
}
