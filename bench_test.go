// Benchmark harness: one benchmark per table and figure in the paper's
// evaluation (see DESIGN.md §4 for the experiment index), plus the
// ablation sweeps of DESIGN.md §7 and micro-benchmarks of the hot
// components.
//
// The figure benchmarks share one generated universe and re-run the
// pipeline stage that produces the figure; the headline statistic of
// each figure is attached as a custom benchmark metric so the "shape"
// result is visible in the -bench output.
//
//	go test -bench=. -benchmem
package permadead

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"permadead/internal/ablation"
	"permadead/internal/core"
	"permadead/internal/fetch"
	"permadead/internal/shingle"
	"permadead/internal/simweb"
	"permadead/internal/softerror"
	"permadead/internal/stats"
	"permadead/internal/urlutil"
	"permadead/internal/wikitext"
	"permadead/internal/worldgen"
)

// benchScale sizes the shared benchmark universe: 0.1 → a 1,000-link
// study, generated once in a few seconds.
const benchScale = 0.1

var (
	benchOnce   sync.Once
	benchU      *worldgen.Universe
	benchStudy  *core.Study
	benchReport *core.Report
)

func benchSetup(b *testing.B) (*worldgen.Universe, *core.Study, *core.Report) {
	b.Helper()
	benchOnce.Do(func() {
		benchU = Generate(Options{Scale: benchScale, Seed: 1})
		benchStudy = Study(benchU, Options{Seed: 1})
		r, err := benchStudy.Run(context.Background())
		if err != nil {
			panic(err)
		}
		benchReport = r
	})
	return benchU, benchStudy, benchReport
}

// freshReport returns a Report pre-populated with the collected sample
// so a single stage can run against it.
func freshReport(s *core.Study, base *core.Report) *core.Report {
	return &core.Report{Config: s.Config, Records: base.Records}
}

// --- Generation and dataset (§2.4) ---

// BenchmarkGenerateUniverse measures building and executing a complete
// (small) universe: web, wiki, archive, capture services, and the full
// IABot timeline. One fixed seed: universes differ by 30 % in cost from
// seed to seed, so a per-iteration seed made ns/op depend on b.N.
func BenchmarkGenerateUniverse(b *testing.B) {
	p := worldgen.DefaultParams().Scale(0.02)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		u := worldgen.Generate(p)
		if len(u.Plan.Links) == 0 {
			b.Fatal("empty universe")
		}
	}
}

// TestGenerateAllocCeiling keeps the generator's allocation count from
// rotting back: the same universe as BenchmarkGenerateUniverse took
// 692 k allocations while every bot fetch rendered a page body and
// built an http.Client timer, 330 k after that (PR 23), and 321 k now
// that a status-only fetch closes its body unread (PR 24). The count
// repeats to within ten from run to run, so the ceiling trips on a
// regression, not on noise.
func TestGenerateAllocCeiling(t *testing.T) {
	const ceiling = 380_000
	p := worldgen.DefaultParams().Scale(0.02)
	if n := testing.AllocsPerRun(1, func() { worldgen.Generate(p) }); n > ceiling {
		t.Errorf("worldgen.Generate at Scale(0.02): %.0f allocations, ceiling %d", n, ceiling)
	}
}

// BenchmarkDataset reproduces the §2.4 collection: crawl the tracking
// category, mine edit histories, filter to IABot-marked links, sample.
func BenchmarkDataset(b *testing.B) {
	_, s, r := benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		recs := s.Collect()
		n = len(recs)
	}
	b.ReportMetric(float64(n), "links")
	b.ReportMetric(float64(r.NumDomains), "domains")
}

// BenchmarkFigure3a regenerates the per-domain URL-count CDF.
func BenchmarkFigure3a(b *testing.B) {
	_, s, base := benchSetup(b)
	b.ResetTimer()
	var oneURL float64
	for i := 0; i < b.N; i++ {
		r := freshReport(s, base)
		s.DatasetStats(r)
		oneURL = r.URLsPerDomain.At(1)
	}
	b.ReportMetric(oneURL*100, "%domains-with-1-url")
}

// BenchmarkFigure3b regenerates the site-ranking CDF.
func BenchmarkFigure3b(b *testing.B) {
	_, s, base := benchSetup(b)
	b.ResetTimer()
	var median float64
	for i := 0; i < b.N; i++ {
		r := freshReport(s, base)
		s.DatasetStats(r)
		median = r.SiteRanks.Quantile(0.5)
	}
	b.ReportMetric(median, "median-rank")
}

// BenchmarkFigure3c regenerates the posting-date CDF.
func BenchmarkFigure3c(b *testing.B) {
	_, s, base := benchSetup(b)
	b.ResetTimer()
	var after2015 float64
	for i := 0; i < b.N; i++ {
		r := freshReport(s, base)
		s.DatasetStats(r)
		after2015 = 1 - r.PostYears.At(2016)
	}
	b.ReportMetric(after2015*100, "%posted-after-2015")
}

// BenchmarkDatasetRepresentativeness reproduces the §2.4 check: a
// second, random sample whose distributions must match the
// alphabetical dataset (reported as the KS statistic on posting dates).
func BenchmarkDatasetRepresentativeness(b *testing.B) {
	u, _, base := benchSetup(b)
	b.ResetTimer()
	var ks float64
	for i := 0; i < b.N; i++ {
		s2 := Study(u, Options{Seed: int64(i + 5), RandomArticles: true})
		r2 := freshReport(s2, &core.Report{Config: s2.Config, Records: s2.Collect()})
		s2.DatasetStats(r2)
		ks = stats.KS(base.PostYears, r2.PostYears)
	}
	b.ReportMetric(ks, "ks-statistic")
}

// --- Figure 4 and §3 ---

// BenchmarkFigure4 regenerates the live-web outcome breakdown: one GET
// per sampled link plus the soft-404 probes for the 200s.
func BenchmarkFigure4(b *testing.B) {
	_, s, base := benchSetup(b)
	ctx := context.Background()
	b.ResetTimer()
	var frac200 float64
	for i := 0; i < b.N; i++ {
		r := freshReport(s, base)
		if err := s.LiveCheck(ctx, r); err != nil {
			b.Fatal(err)
		}
		frac200 = r.LiveBreakdown.Fraction("200")
	}
	b.ReportMetric(frac200*100, "%status-200")
}

// BenchmarkSection3 isolates the soft-404 detection over the sample's
// 200-status links (the §3 "are they really dead?" probe).
func BenchmarkSection3(b *testing.B) {
	_, s, base := benchSetup(b)
	ctx := context.Background()
	// Pre-fetch once; the bench measures the probes.
	r := freshReport(s, base)
	if err := s.LiveCheck(ctx, r); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var functional int
	for i := 0; i < b.N; i++ {
		functional = 0
		det := softerror.NewDetector(s.Client)
		for _, res := range r.LiveResults {
			if res.Category != fetch.Cat200 {
				continue
			}
			if v := det.Check(ctx, res.URL, res); !v.Broken {
				functional++
			}
		}
	}
	b.ReportMetric(float64(functional)/float64(r.N())*100, "%functional")
}

// --- §4 ---

// BenchmarkSection41 regenerates the §4.1/§4.2 archive-history
// classification (pre-mark copies, availability misses, redirect
// copies).
func BenchmarkSection41(b *testing.B) {
	_, s, base := benchSetup(b)
	b.ResetTimer()
	var pre200 int
	for i := 0; i < b.N; i++ {
		r := freshReport(s, base)
		s.ArchiveAnalysis(r)
		pre200 = len(r.Pre200)
	}
	b.ReportMetric(float64(pre200)/float64(base.N())*100, "%timeout-missed")
}

// BenchmarkSection42 isolates the redirect validation over the links
// with 3xx copies.
func BenchmarkSection42(b *testing.B) {
	u, _, base := benchSetup(b)
	b.ResetTimer()
	var pts []ablation.RedirectPoint
	for i := 0; i < b.N; i++ {
		pts = ablation.RedirectSweep(u.Archive, base.Records, []int{90}, []int{6})
	}
	b.ReportMetric(float64(pts[0].Validated)/float64(base.N())*100, "%validated")
}

// --- §5.1 / Figure 5 ---

// BenchmarkFigure5 regenerates the posting→first-capture gap CDF.
func BenchmarkFigure5(b *testing.B) {
	_, s, base := benchSetup(b)
	b.ResetTimer()
	var median float64
	for i := 0; i < b.N; i++ {
		r := freshReport(s, base)
		s.ArchiveAnalysis(r)
		s.TemporalAnalysis(r)
		median = r.GapCDF.Quantile(0.5)
	}
	b.ReportMetric(median, "median-gap-days")
}

// BenchmarkSection51 is the full temporal partition (6,936/1,982
// split, pre-posting copies, same-day captures).
func BenchmarkSection51(b *testing.B) {
	_, s, base := benchSetup(b)
	b.ResetTimer()
	var noCopies int
	for i := 0; i < b.N; i++ {
		r := freshReport(s, base)
		s.ArchiveAnalysis(r)
		s.TemporalAnalysis(r)
		noCopies = len(r.NoCopies)
	}
	b.ReportMetric(float64(noCopies)/float64(base.N())*100, "%never-archived")
}

// --- §5.2 / Figure 6 ---

// BenchmarkFigure6 regenerates the directory/hostname coverage CDFs
// for the never-archived links (CDX queries).
func BenchmarkFigure6(b *testing.B) {
	_, s, base := benchSetup(b)
	b.ResetTimer()
	var zeroDir int
	for i := 0; i < b.N; i++ {
		r := freshReport(s, base)
		s.ArchiveAnalysis(r)
		s.TemporalAnalysis(r)
		s.SpatialAnalysis(r)
		zeroDir = r.ZeroDir
	}
	b.ReportMetric(float64(zeroDir), "zero-dir-links")
}

// BenchmarkSection52 isolates the edit-distance typo probe, the most
// expensive spatial step.
func BenchmarkSection52(b *testing.B) {
	_, s, base := benchSetup(b)
	r := freshReport(s, base)
	s.ArchiveAnalysis(r)
	s.TemporalAnalysis(r)
	b.ResetTimer()
	var typos int
	for i := 0; i < b.N; i++ {
		r2 := freshReport(s, base)
		r2.Pre200 = r.Pre200
		r2.NoCopies = r.NoCopies
		s.SpatialAnalysis(r2)
		typos = r2.Typos
	}
	b.ReportMetric(float64(typos), "typos")
}

// --- Concurrency scaling (§4–§5 parallel fan-out) ---

// analysisConcurrencies are the fan-outs the scaling benchmarks
// compare: sequential, a modest pool, and the default.
var analysisConcurrencies = []int{1, 8, 32}

// BenchmarkArchiveAnalysisParallel measures the §4 + §5.1 archive-side
// stages at increasing worker counts. Each iteration uses a fresh
// Study (cold memo), so the numbers include the real per-run CDX scan
// cost rather than a pre-warmed cache.
func BenchmarkArchiveAnalysisParallel(b *testing.B) {
	u, _, base := benchSetup(b)
	for _, conc := range analysisConcurrencies {
		b.Run(fmt.Sprintf("conc-%d", conc), func(b *testing.B) {
			b.ResetTimer()
			var pre200 int
			for i := 0; i < b.N; i++ {
				s := Study(u, Options{Seed: 1, Concurrency: conc})
				r := freshReport(s, base)
				s.ArchiveAnalysis(r)
				s.TemporalAnalysis(r)
				pre200 = len(r.Pre200)
			}
			b.ReportMetric(float64(pre200), "pre200-links")
		})
	}
}

// BenchmarkSpatialParallel measures the §5.2 spatial stage (Figure 6
// coverage counts + typo probe) at increasing worker counts, with the
// §4/§5.1 inputs precomputed once.
func BenchmarkSpatialParallel(b *testing.B) {
	u, s0, base := benchSetup(b)
	pre := freshReport(s0, base)
	s0.ArchiveAnalysis(pre)
	s0.TemporalAnalysis(pre)
	for _, conc := range analysisConcurrencies {
		b.Run(fmt.Sprintf("conc-%d", conc), func(b *testing.B) {
			b.ResetTimer()
			var typos int
			for i := 0; i < b.N; i++ {
				s := Study(u, Options{Seed: 1, Concurrency: conc})
				r := freshReport(s, base)
				r.Pre200 = pre.Pre200
				r.NoCopies = pre.NoCopies
				s.SpatialAnalysis(r)
				typos = r.Typos
			}
			b.ReportMetric(float64(typos), "typos")
		})
	}
}

// --- Ablations (DESIGN.md §7) ---

// BenchmarkAblationTimeout sweeps IABot's availability timeout (§4.1).
func BenchmarkAblationTimeout(b *testing.B) {
	u, _, base := benchSetup(b)
	timeouts := []time.Duration{time.Second, 2 * time.Second, 10 * time.Second, 0}
	b.ResetTimer()
	var missed int
	for i := 0; i < b.N; i++ {
		pts := ablation.TimeoutSweep(u.Archive, base.Records, timeouts)
		missed = pts[1].Missed
	}
	b.ReportMetric(float64(missed), "missed@2s")
}

// BenchmarkAblationRedirect sweeps the §4.2 validation parameters.
func BenchmarkAblationRedirect(b *testing.B) {
	u, _, base := benchSetup(b)
	b.ResetTimer()
	var validated int
	for i := 0; i < b.N; i++ {
		pts := ablation.RedirectSweep(u.Archive, base.Records, []int{30, 90, 365}, []int{2, 6})
		validated = pts[3].Validated // window 90, siblings 6 — the paper's point
	}
	b.ReportMetric(float64(validated), "validated@paper-params")
}

// BenchmarkAblationArchiveDelay sweeps the §5.1 capture-on-post delay.
func BenchmarkAblationArchiveDelay(b *testing.B) {
	u, _, base := benchSetup(b)
	b.ResetTimer()
	var usable int
	for i := 0; i < b.N; i++ {
		pts := ablation.ArchiveDelaySweep(u.World, base.Records, []int{0, 30, 180, 365})
		usable = pts[0].WouldHaveUsableCopy
	}
	b.ReportMetric(float64(usable)/float64(base.N())*100, "%usable@day0")
}

// BenchmarkAblationRecheck sweeps the §3 re-check cadence.
func BenchmarkAblationRecheck(b *testing.B) {
	u, _, base := benchSetup(b)
	b.ResetTimer()
	var genuine int
	for i := 0; i < b.N; i++ {
		pts := ablation.RecheckSweep(u.World, base.Records, u.Params.StudyTime, []int{180})
		genuine = pts[0].Genuine
	}
	b.ReportMetric(float64(genuine), "genuine-recoveries@180d")
}

// BenchmarkWaybackMedic runs the §4.1 intervention (both variants)
// over a cloned wiki.
func BenchmarkWaybackMedic(b *testing.B) {
	u, _, _ := benchSetup(b)
	b.ResetTimer()
	var rescued int
	for i := 0; i < b.N; i++ {
		res := ablation.MedicExperiment(u.Wiki, u.Archive, u.Params.StudyTime)
		rescued = res.WithRedirects.Patched + res.WithRedirects.RedirectPatched
	}
	b.ReportMetric(float64(rescued), "rescued")
}

// --- Component micro-benchmarks ---

func BenchmarkFetchSimulatedPage(b *testing.B) {
	u, _, base := benchSetup(b)
	client := fetch.New(simweb.NewTransport(u.World, u.Params.StudyTime))
	ctx := context.Background()
	url := base.Records[0].URL
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		client.Fetch(ctx, url)
	}
}

func BenchmarkIABotArticleScan(b *testing.B) {
	u, _, _ := benchSetup(b)
	titles := u.Wiki.Titles()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Scans of already-processed articles: parse + skip decisions.
		u.Bot.ScanArticle(ctx, titles[i%len(titles)], u.Params.StudyTime) //nolint:errcheck
	}
}

func BenchmarkWikitextDigest(b *testing.B) {
	u, _, _ := benchSetup(b)
	text := u.Wiki.Article(u.Wiki.Titles()[0]).Current().Text
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cited, _ := wikitext.AppendDigest(nil, nil, text); len(cited) == 0 {
			b.Fatal("no cited links")
		}
	}
}

// BenchmarkWikitextApply splices IABot's edit into the same article:
// its first link tagged {{dead link}}, its last patched, the category
// added.
func BenchmarkWikitextApply(b *testing.B) {
	u, _, _ := benchSetup(b)
	text := u.Wiki.Article(u.Wiki.Titles()[0]).Current().Text
	cited := wikitext.AppendCited(nil, text)
	edits := []wikitext.Edit{
		{Op: wikitext.MarkDead, Link: 0, Date: "March 2018", Bot: "InternetArchiveBot"},
		{Op: wikitext.AddCategory, Category: "Articles with permanently dead external links"},
	}
	if n := len(cited); n > 1 {
		edits = append(edits, wikitext.Edit{Op: wikitext.Patch, Link: n - 1, ArchiveURL: "https://web.archive.org/web/2011/" + cited[n-1].URL, Date: "2011-01-01"})
	}
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(wikitext.Apply(text, edits)) <= len(text) {
			b.Fatal("edit added nothing")
		}
	}
}

func BenchmarkAvailabilityQuery(b *testing.B) {
	u, _, base := benchSetup(b)
	rec := base.Records[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u.Archive.Closest(rec.URL, rec.Added, nil)
	}
}

func BenchmarkCDXDirectoryCount(b *testing.B) {
	u, _, base := benchSetup(b)
	url := base.Records[len(base.Records)/2].URL
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u.Archive.CountInDirectory(url)
	}
}

func BenchmarkShingleSimilarity(b *testing.B) {
	u, _, base := benchSetup(b)
	res := u.World.Get(base.Records[0].URL, u.Params.StudyTime)
	other := u.World.Get("http://"+base.Records[0].Host+"/", u.Params.StudyTime)
	b.SetBytes(int64(len(res.Body) + len(other.Body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shingle.Similarity(res.Body, other.Body)
	}
}

func BenchmarkEditDistance(b *testing.B) {
	a := "http://www.lnr.fr/top-14-orange-histoire-parc-des-princes-paris-26-may-1984.html"
	c := "http://www.lnr.fr/top-14-orange-histoire-parc-des-princes-paris-26-mai-1984.html"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if urlutil.EditDistance(a, c) != 1 {
			b.Fatal("unexpected distance")
		}
	}
}

// BenchmarkEditDistanceAtMost is the typo probe's per-candidate call,
// k = 1, on the three kinds of same-domain pair it meets: the typo
// itself (distance 1, the whole band runs), a near miss (distance 2)
// and an unrelated page of the site (the early exit).
func BenchmarkEditDistanceAtMost(b *testing.B) {
	dead := "www.lnr.fr/top-14-orange-histoire-parc-des-princes-paris-26-may-1984.html"
	for _, c := range []struct {
		name, cand string
		want       bool
	}{
		{"distance-1", "www.lnr.fr/top-14-orange-histoire-parc-des-princes-paris-26-mai-1984.html", true},
		{"distance-2", "www.lnr.fr/top-14-orange-histoire-parc-des-princes-paris-26-mai-1985.html", false},
		{"distant", "www.lnr.fr/pro-d2-calendrier-resultats-saison-2009-2010-journee-14.html", false},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if urlutil.EditDistanceAtMost(c.cand, dead, 1) != c.want {
					b.Fatal("unexpected verdict")
				}
			}
		})
	}
}

// BenchmarkAblationScanInterval regenerates tiny universes under
// different bot cadences and reports the marking latency (the design
// knob behind "how long is a broken reference untagged?").
func BenchmarkAblationScanInterval(b *testing.B) {
	base := worldgen.DefaultParams().Scale(0.01)
	b.ResetTimer()
	var mean float64
	for i := 0; i < b.N; i++ {
		base.Seed = int64(i + 31)
		pts := ablation.ScanIntervalSweep(base, []int{60, 150, 365})
		mean = pts[1].MeanMarkLatency
	}
	b.ReportMetric(mean, "mean-mark-latency-days@150d")
}
