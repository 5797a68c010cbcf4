package archive

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// members lists every candidate of s, sorted.
func members(s *CandidateSet) []string {
	maxLen := 0
	for _, u := range s.urls {
		maxLen = max(maxLen, len(u))
	}
	for _, l := range s.lazy {
		maxLen = max(maxLen, l.size())
	}
	var out []string
	for n := 0; n <= maxLen; n++ {
		s.Each(n, func(u string) bool {
			if len(u) != n {
				panic(fmt.Sprintf("Each(%d) yielded %q", n, u))
			}
			out = append(out, u)
			return true
		})
	}
	sort.Strings(out)
	return out
}

// strippedDomainURLs is DomainURLs without "http://", sorted: what a
// CandidateSet must hold.
func strippedDomainURLs(a *Archive, domain string, limit int) ([]string, bool) {
	urls, truncated := a.DomainURLs(domain, limit)
	out := make([]string, len(urls))
	for i, u := range urls {
		out[i] = strings.TrimPrefix(u, "http://")
	}
	sort.Strings(out)
	return out, truncated
}

// candidateFixture holds each case the set's count-only bulk listing
// must get right: a region alone on its directory, an explicit row
// equal to a bulk name, three regions sharing a directory (one seed
// repeated, so their names coincide), two hosts in one domain, more
// distinct URLs than the small limits.
func candidateFixture() *Archive {
	a := New()
	for i := 0; i < 6; i++ {
		a.Add(snap(fmt.Sprintf("http://c.simtest/p/page-%d.html", i), 10+i, 200))
		a.Add(snap(fmt.Sprintf("http://c.simtest/p/page-%d.html", i), 20+i, 404)) // a repeat capture
		a.Add(snap(fmt.Sprintf("http://www.c.simtest/q/%d", i), 30+i, 200))
	}
	lone := BulkRegion{Host: "c.simtest", DirPrefix: "/lone/", Count: 7, FirstDay: d(40), LastDay: d(60), Seed: 1}
	a.AddBulkCoverage(lone)
	shadowed := BulkRegion{Host: "c.simtest", DirPrefix: "/shadow/", Count: 5, FirstDay: d(40), LastDay: d(60), Seed: 2}
	a.Add(snap("http://c.simtest"+shadowed.PathAt(3), 41, 200))
	a.AddBulkCoverage(shadowed)
	for _, seed := range []uint64{3, 3, 4} {
		a.AddBulkCoverage(BulkRegion{Host: "www.c.simtest", DirPrefix: "/twin/", Count: 4, FirstDay: d(40), LastDay: d(60), Seed: seed})
	}
	a.AddBulkCoverage(BulkRegion{Host: "www.c.simtest", DirPrefix: "/big/", Count: 30, FirstDay: d(40), LastDay: d(60), Seed: 5})
	a.Add(snap("http://other.simtest/x", 10, 200))
	return a
}

// TestCandidateSetMatchesDomainURLs checks the set holds exactly
// DomainURLs' URLs, stripped, at every limit from below the explicit
// rows to past the whole domain and either side of 10⁶ (where names
// gain a digit), on the frozen and paged (Open over Export) forms.
func TestCandidateSetMatchesDomainURLs(t *testing.T) {
	frozen := candidateFixture()
	frozen.Freeze()
	s, _, err := candidateFixture().Export()
	if err != nil {
		t.Fatal(err)
	}
	paged, err := Open(s)
	if err != nil {
		t.Fatal(err)
	}
	var limits []int
	for limit := -1; limit <= 80; limit++ {
		limits = append(limits, limit)
	}
	for name, a := range map[string]*Archive{"frozen": frozen, "paged": paged} {
		for _, domain := range []string{"c.simtest", "C.SIMTEST", "other.simtest", "none.simtest"} {
			for _, limit := range append(limits, 1e6-1, 1e6) {
				set := a.candidateSet(domain, limit)
				got, gotTrunc := members(set), set.Truncated()
				want, wantTrunc := strippedDomainURLs(a, domain, limit)
				if gotTrunc != wantTrunc || fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s: candidateSet(%s, %d) = %v/%v, want %v/%v", name, domain, limit, got, gotTrunc, want, wantTrunc)
				}
			}
		}
	}
	// Every region is listed by count; the name the shadow row repeats
	// is skipped, and so is every name of the repeated twin.
	set := frozen.candidateSet("c.simtest", 0)
	var lazy []string
	for _, l := range set.lazy {
		lazy = append(lazy, fmt.Sprintf("%s%s%d%v", l.r.Host, l.r.DirPrefix, l.n, l.skip))
	}
	if got := fmt.Sprint(lazy); got != "[c.simtest/lone/7[] c.simtest/shadow/4[3] www.c.simtest/twin/4[] www.c.simtest/twin/4[] www.c.simtest/big/30[]]" {
		t.Errorf("regions listed by count = %s", got)
	}
}

// TestCandidateSetExpandsOnlyProbedLengths checks a region listed by
// count stays unexpanded until a probe visits its length.
func TestCandidateSetExpandsOnlyProbedLengths(t *testing.T) {
	a := candidateFixture()
	a.Freeze()
	set := a.candidateSet("c.simtest", 0)
	lone, big := set.lazy[0], set.lazy[4]
	set.Each(lone.size(), func(string) bool { return true })
	if lone.names == "" || big.names != "" {
		t.Errorf("after probing length %d: lone expanded %v, big expanded %v", lone.size(), lone.names != "", big.names != "")
	}
}

// TestDomainCandidatesBuiltOnce asks one cold memo for the same domain
// from 32 goroutines at once: one miss, one build, one shared set.
func TestDomainCandidatesBuiltOnce(t *testing.T) {
	a := coverageFixture()
	a.Freeze()
	m := NewMemo(a)
	const n = 32
	sets := make([]*CandidateSet, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range sets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			sets[g] = m.DomainCandidates("news.simtest", 50)
		}()
	}
	close(start)
	wg.Wait()
	if st := m.Stats(); st.Misses != 1 || st.Hits != n-1 {
		t.Errorf("misses/hits = %d/%d, want 1/%d", st.Misses, st.Hits, n-1)
	}
	for g, s := range sets {
		if s != sets[0] {
			t.Fatalf("goroutine %d got a second set", g)
		}
	}
}

// TestDomainCandidatesEvictedMidBuild evicts an entry from a cap-1 memo
// while its build is held: every waiter still gets the one complete
// set, and the next call builds a fresh one. A frozen archive's build
// takes no lock, so the test holds the build itself: it files the
// entry and runs its once.
func TestDomainCandidatesEvictedMidBuild(t *testing.T) {
	a := coverageFixture()
	a.Freeze()
	m := NewMemoCapped(a, 1)
	e := &candidateEntry{}
	m.memoPut(domainLimit{"news.simtest", 50}, e)
	building, release := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		e.once.Do(func() {
			close(building)
			<-release
			e.set = a.candidateSet("news.simtest", 50)
		})
	}()
	<-building
	const n = 8
	sets := make([]*CandidateSet, n)
	for g := range sets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sets[g] = m.DomainCandidates("news.simtest", 50)
		}()
	}
	waitFor(t, func() bool { return m.Stats().Hits == n })
	m.DomainCandidates("elsewhere.simtest", 50)
	if ev := m.Stats().Evictions; ev != 1 {
		t.Errorf("evictions = %d, want 1", ev)
	}
	close(release)
	wg.Wait()

	want, _ := strippedDomainURLs(a, "news.simtest", 50)
	for g, s := range sets {
		if s != sets[0] {
			t.Fatalf("goroutine %d got a second set", g)
		}
	}
	if got := members(sets[0]); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("set built under eviction = %v, want %v", got, want)
	}
	again := m.DomainCandidates("news.simtest", 50)
	if again == sets[0] || fmt.Sprint(members(again)) != fmt.Sprint(want) {
		t.Errorf("after eviction: same set %v, members %v", again == sets[0], members(again))
	}
	if st := m.Stats(); st.Misses != 2 {
		t.Errorf("misses = %d, want 2 (elsewhere's build and news's rebuild; the held build was filed by hand)", st.Misses)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 10s")
		}
	}
}
