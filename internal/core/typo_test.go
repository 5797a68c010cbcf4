package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"permadead/internal/archive"
	"permadead/internal/fetch"
	"permadead/internal/simclock"
	"permadead/internal/simweb"
	"permadead/internal/urlutil"
	"permadead/internal/worldgen"
)

// isTypoReference is the typo probe before the per-domain candidate
// set: every URL Archive.DomainURLs lists, scheme stripped, compared
// with the dead URL.
func isTypoReference(a *archive.Archive, url string, limit int) (typo, truncated bool) {
	domain := urlutil.Domain(url)
	if domain == "" {
		return false, false
	}
	cands, truncated := a.DomainURLs(domain, limit)
	self := stripScheme(url)
	matches := 0
	for _, cand := range cands {
		if cand == url {
			continue
		}
		sc := stripScheme(cand)
		if sc == self {
			continue
		}
		if urlutil.EditDistanceAtMost(sc, self, 1) {
			matches++
			if matches > 1 {
				return false, truncated
			}
		}
	}
	return matches == 1, truncated
}

// inMemoryAndPaged freezes a and returns it beside a second archive
// served from its exported sections, as a paged file is.
func inMemoryAndPaged(t testing.TB, a *archive.Archive) map[string]*archive.Archive {
	s, _, err := a.Export()
	if err != nil {
		t.Fatal(err)
	}
	paged, err := archive.Open(s)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*archive.Archive{"in-memory": a, "paged": paged}
}

// checkTypoProbe compares isTypo with the reference for every url at
// every limit, on each form through a fresh memo.
func checkTypoProbe(t *testing.T, forms map[string]*archive.Archive, urls []string, limits []int) {
	t.Helper()
	for name, a := range forms {
		memo := archive.NewMemo(a)
		for _, limit := range limits {
			for _, u := range urls {
				gotTypo, gotTrunc := isTypo(memo, u, limit)
				wantTypo, wantTrunc := isTypoReference(a, u, limit)
				if gotTypo != wantTypo || gotTrunc != wantTrunc {
					t.Errorf("%s, limit %d: isTypo(%q) = %v/%v, reference %v/%v", name, limit, u, gotTypo, gotTrunc, wantTypo, wantTrunc)
				}
			}
		}
	}
}

// TestTypoProbeMatchesReferenceOnUniverse compares the probe with the
// reference for every never-archived link of a Scale(0.05) universe,
// at the study's limit and at one that truncates the larger domains.
func TestTypoProbeMatchesReferenceOnUniverse(t *testing.T) {
	u := worldgen.Generate(worldgen.DefaultParams().Scale(0.05))
	cfg := DefaultConfig()
	cfg.SampleSize = u.Params.SampleSize
	cfg.CrawlArticles = 0
	s := &Study{Config: cfg, Wiki: u.Wiki, Arch: u.Archive, Client: fetch.New(simweb.NewTransport(u.World, cfg.StudyTime))}
	r, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var urls []string
	for _, k := range r.NoCopies {
		urls = append(urls, r.Records[k].URL)
	}
	if len(urls) == 0 || len(r.TypoLinks) == 0 {
		t.Fatalf("universe has %d never-archived links, %d typos", len(urls), len(r.TypoLinks))
	}
	checkTypoProbe(t, inMemoryAndPaged(t, u.Archive), urls, []int{typoScanLimit, 50})
}

// typoFixture covers the set's cases: a domain past small limits, two
// hosts in one domain, an explicit row equal to a bulk name, two
// regions sharing a directory, and many URLs at distance 1 from each
// other.
func typoFixture() *archive.Archive {
	a := archive.New()
	add := func(url string, day int) {
		a.Add(archive.Snapshot{URL: url, Day: simclock.Day(day), InitialStatus: 200})
	}
	for i := 0; i < 12; i++ {
		add(fmt.Sprintf("http://t.simtest/page-%02d.html", i), 10+i)
	}
	add("http://a.two.simtest/x", 10)
	add("http://b.two.simtest/x", 10)
	add("http://b.two.simtest/longer-path", 11)
	bulk := func(host, dir string, count int, seed uint64) archive.BulkRegion {
		r := archive.BulkRegion{Host: host, DirPrefix: dir, Count: count, FirstDay: 40, LastDay: 60, Seed: seed}
		a.AddBulkCoverage(r)
		return r
	}
	shadowed := bulk("t.simtest", "/shadow/", 5, 1)
	add("http://t.simtest"+shadowed.PathAt(2), 12)
	bulk("t.simtest", "/twin/", 4, 2)
	bulk("t.simtest", "/twin/", 6, 3)
	bulk("www.t.simtest", "/lone/", 9, 4)
	return a
}

// typoProbes derives dead URLs from each listed URL: itself, its
// https form, and one deletion, insertion and substitution, at each
// of three positions.
func typoProbes(a *archive.Archive, domains ...string) []string {
	var out []string
	for _, d := range domains {
		urls, _ := a.DomainURLs(d, 0)
		for _, u := range urls {
			rest := strings.TrimPrefix(u, "http://")
			out = append(out, u, "https://"+rest)
			for _, i := range []int{len(rest) - 1, len(rest) - 7, len(rest) / 2} {
				if i < 0 {
					continue
				}
				out = append(out,
					"http://"+rest[:i]+rest[i+1:],
					"http://"+rest[:i]+"z"+rest[i:],
					"https://"+rest[:i]+"z"+rest[i+1:])
			}
		}
	}
	return out
}

// TestTypoProbeMatchesReferenceHandBuilt compares the probe with the
// reference over the fixture's edge cases at limits from 1 up, on the
// in-memory and the paged form.
func TestTypoProbeMatchesReferenceHandBuilt(t *testing.T) {
	a := typoFixture()
	a.Freeze()
	probes := typoProbes(a, "t.simtest", "two.simtest")
	limits := []int{1, 2, 3, 5, 8, 12, 13, 21, 30, 100, typoScanLimit}
	checkTypoProbe(t, inMemoryAndPaged(t, a), probes, limits)

	// The fixture reaches every verdict.
	memo := archive.NewMemo(a)
	var typos, truncated int
	for _, u := range probes {
		typo, trunc := isTypo(memo, u, 13)
		if typo {
			typos++
		}
		if trunc {
			truncated++
		}
	}
	if typos == 0 || typos == len(probes) || truncated == 0 || truncated == len(probes) {
		t.Errorf("fixture probes: %d typos, %d truncated of %d", typos, truncated, len(probes))
	}
}

// FuzzTypoCandidates builds an archive from fuzzed explicit paths,
// bulk regions and a limit, and checks the probe against the reference
// for a dead URL that is either fuzzed or one edit from a listed URL.
func FuzzTypoCandidates(f *testing.F) {
	f.Add("\x00page-1\n\x01page-2\n\x02d/item-000001-0000.html", []byte{0, 1, 5, 1, 0, 1, 5, 1, 1, 0, 9, 2}, uint8(4), "page-3", uint16(0x20), uint8(9))
	f.Add("\x00a\n\x00b\n\x00c", []byte{2, 2, 200, 3}, uint8(0), "b", uint16(0x21), uint8(1))
	f.Fuzz(func(t *testing.T, paths string, regions []byte, limit uint8, dead string, pick uint16, edit uint8) {
		hosts := []string{"f.simtest", "www.f.simtest", "a.f.simtest"}
		dirs := []string{"/", "/d/", "/d/e/"}
		a := archive.New()
		for i, line := range strings.Split(paths, "\n") {
			if i == 64 {
				break
			}
			if line != "" {
				a.Add(archive.Snapshot{URL: "http://" + hosts[int(line[0])%3] + "/" + line[1:], Day: simclock.Day(i), InitialStatus: 200 + 204*(i%2)})
			}
		}
		for i := 0; i+3 < min(len(regions), 64); i += 4 {
			a.AddBulkCoverage(archive.BulkRegion{Host: hosts[regions[i]%3], DirPrefix: dirs[regions[i+1]%3],
				Count: int(regions[i+2]), FirstDay: 1, LastDay: 9, Seed: uint64(regions[i+3] % 4)})
		}
		a.Freeze()
		// pick: bits 0-1 host, bit 4 https, bit 5 start from a listed
		// URL (bits 6-15 choose it); edit: bits 0-1 none, delete,
		// insert or substitute, bits 2-7 the position.
		rest := hosts[int(pick&3)%3] + "/" + dead
		if all, _ := a.DomainURLs("f.simtest", 1<<20); pick&0x20 != 0 && len(all) > 0 {
			rest = strings.TrimPrefix(all[int(pick>>6)%len(all)], "http://")
		}
		i := int(edit>>2) % (len(rest) + 1)
		switch edit & 3 {
		case 1:
			if i < len(rest) {
				rest = rest[:i] + rest[i+1:]
			}
		case 2:
			rest = rest[:i] + "z" + rest[i:]
		case 3:
			if i < len(rest) {
				rest = rest[:i] + "z" + rest[i+1:]
			}
		}
		url := "http://" + rest
		if pick&0x10 != 0 {
			url = "https://" + rest
		}
		for name, x := range inMemoryAndPaged(t, a) {
			gotTypo, gotTrunc := isTypo(archive.NewMemo(x), url, int(limit))
			wantTypo, wantTrunc := isTypoReference(x, url, int(limit))
			if gotTypo != wantTypo || gotTrunc != wantTrunc {
				t.Fatalf("%s, limit %d: isTypo(%q) = %v/%v, reference %v/%v", name, limit, url, gotTypo, gotTrunc, wantTypo, wantTrunc)
			}
		}
	})
}
