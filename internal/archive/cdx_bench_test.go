package archive

import (
	"fmt"
	"testing"
)

// CDX benchmarks: every op hits the Archive directly, as the §4.2 and
// §5.2 analyses do, so each measures one real index lookup. Each
// benchmark runs the same query against two archives holding an
// identical large-host world: "naive-scan" is unfrozen (the mutable
// linear-scan reference path), "indexed" is frozen (the freeze-time
// sorted/partitioned indexes). The Makefile's bench target records
// the pairs in BENCH_PR2.json, where indexed/naive is the PR's
// speedup trajectory.

// benchHostEntries sizes the large host: ~tens of thousands of rows,
// the Figure 6 regime that motivated the indexes.
const benchHostEntries = 30000

var (
	benchNaive   *Archive
	benchIndexed *Archive
)

// benchArchives builds (once) the two identical archives: one big
// host with benchHostEntries explicit captures across 64 directories
// plus query-bearing rows, 600 small hosts across 200 registrable
// domains for the domain-enumeration benchmarks, and one host whose
// rows are almost all synthetic (a 4 000-row bulk region).
func benchArchives(b *testing.B) (naive, indexed *Archive) {
	b.Helper()
	if benchNaive != nil {
		return benchNaive, benchIndexed
	}
	build := func() *Archive {
		a := New()
		for i := 0; i < benchHostEntries; i++ {
			status := 200
			switch i % 10 {
			case 7:
				status = 404
			case 8:
				status = 301
			}
			a.Add(Snapshot{
				URL:           fmt.Sprintf("http://big.simtest/dir%02d/p%06d.html", i%64, i),
				Day:           d(10 + i%6000),
				InitialStatus: status,
				FinalStatus:   200,
			})
		}
		// Query-bearing rows for the permutation probe.
		for i := 0; i < 512; i++ {
			a.Add(Snapshot{
				URL:           fmt.Sprintf("http://big.simtest/view.asp?b=%d&a=%d", i%32, i/32),
				Day:           d(100 + i),
				InitialStatus: 200,
				FinalStatus:   200,
			})
		}
		for h := 0; h < 600; h++ {
			host := fmt.Sprintf("h%d.dom%d.simtest", h%3, h/3)
			for p := 0; p < 5; p++ {
				a.Add(Snapshot{
					URL:           fmt.Sprintf("http://%s/page-%d.html", host, p),
					Day:           d(50 + p),
					InitialStatus: 200,
					FinalStatus:   200,
				})
			}
		}
		for p := 0; p < 5; p++ {
			a.Add(Snapshot{
				URL:           fmt.Sprintf("http://www.bulk.simtest/news/page-%d.html", p),
				Day:           d(50 + p),
				InitialStatus: 200,
				FinalStatus:   200,
			})
		}
		a.AddBulkCoverage(BulkRegion{
			Host: "www.bulk.simtest", DirPrefix: "/news/", Count: 4000,
			FirstDay: d(100), LastDay: d(5000), Seed: 42,
		})
		return a
	}
	benchNaive = build()
	benchIndexed = build()
	benchIndexed.Freeze()
	return benchNaive, benchIndexed
}

// runPair benchmarks fn against the naive-scan and the indexed
// archive under the same name.
func runPair(b *testing.B, fn func(b *testing.B, a *Archive)) {
	naive, indexed := benchArchives(b)
	b.Run("naive-scan", func(b *testing.B) { b.ReportAllocs(); fn(b, naive) })
	b.Run("indexed", func(b *testing.B) { b.ReportAllocs(); fn(b, indexed) })
}

// BenchmarkCDXPrefixCount is the Figure 6 directory query: count the
// 200-status rows under one directory of a huge host.
func BenchmarkCDXPrefixCount(b *testing.B) {
	q := CDXQuery{Host: "big.simtest", PathPrefix: "/dir17/", Status: 200}
	runPair(b, func(b *testing.B, a *Archive) {
		var n int
		for i := 0; i < b.N; i++ {
			n = a.CDXCount(q)
		}
		b.ReportMetric(float64(n), "rows")
	})
}

// BenchmarkCDXHostCount is the Figure 6 hostname query: count every
// 200-status row on the host.
func BenchmarkCDXHostCount(b *testing.B) {
	q := CDXQuery{Host: "big.simtest", Status: 200}
	runPair(b, func(b *testing.B, a *Archive) {
		var n int
		for i := 0; i < b.N; i++ {
			n = a.CDXCount(q)
		}
		b.ReportMetric(float64(n), "rows")
	})
}

// BenchmarkCDXPrefixList is the §4.2 sibling enumeration: list up to
// 500 rows under one directory.
func BenchmarkCDXPrefixList(b *testing.B) {
	q := CDXQuery{Host: "big.simtest", PathPrefix: "/dir17/", Limit: 500}
	runPair(b, func(b *testing.B, a *Archive) {
		var n int
		for i := 0; i < b.N; i++ {
			n = len(a.CDXList(q))
		}
		b.ReportMetric(float64(n), "rows")
	})
}

// BenchmarkCDXCountSelf is the exact-path self-capture exclusion both
// coverage counts subtract.
func BenchmarkCDXCountSelf(b *testing.B) {
	url := fmt.Sprintf("http://big.simtest/dir%02d/p%06d.html", 17, 17)
	runPair(b, func(b *testing.B, a *Archive) {
		var n int
		for i := 0; i < b.N; i++ {
			n = a.CountInDirectory(url)
		}
		b.ReportMetric(float64(n), "rows")
	})
}

// BenchmarkDomainURLs is the §5.2 typo-probe enumeration: all
// archived URLs under one registrable domain. The naive path derives
// the registrable domain of every host in the archive per call; the
// indexed path probes the freeze-time domain → hosts map. "explicit"
// is a domain of three small hosts; "bulk" is one host whose 4 000
// rows are generated per call (BulkRegion name formatting, the
// dedupe set's growth).
func BenchmarkDomainURLs(b *testing.B) {
	for _, c := range []struct{ name, domain string }{
		{"explicit", "dom42.simtest"},
		{"bulk", "bulk.simtest"},
	} {
		b.Run(c.name, func(b *testing.B) {
			runPair(b, func(b *testing.B, a *Archive) {
				var n int
				for i := 0; i < b.N; i++ {
					urls, _ := a.DomainURLs(c.domain, 4000)
					n = len(urls)
				}
				b.ReportMetric(float64(n), "urls")
			})
		})
	}
}

// BenchmarkFindQueryPermutation is the §5.2 implication (b) rescue
// probe on a query-heavy host.
func BenchmarkFindQueryPermutation(b *testing.B) {
	probe := "http://big.simtest/view.asp?a=7&b=13"
	runPair(b, func(b *testing.B, a *Archive) {
		found := 0
		for i := 0; i < b.N; i++ {
			if _, ok := a.FindQueryPermutation(probe); ok {
				found++
			}
		}
		if found != b.N {
			b.Fatalf("probe found %d/%d", found, b.N)
		}
	})
}
