package wikimedia_test

import (
	"runtime"
	"testing"

	"permadead/internal/wikimedia"
	"permadead/internal/wikitext"
	"permadead/internal/worldgen"
)

// BenchmarkRevisionDigest reads every revision of the Scale(0.1),
// seed-1 universe per op, three ways: a parse tree and its CitedLinks
// (parse, what the history fold did before the digest scan), the
// digest scan of the cited links into a reused buffer (cited, the
// fold's read now), and the scan with categories (digest, what
// Wiki.Links keeps). It reports ns/byte of wikitext and
// allocs/revision.
func BenchmarkRevisionDigest(b *testing.B) {
	p := worldgen.DefaultParams().Scale(0.1)
	p.Seed = 1
	var texts []string
	bytes := 0
	worldgen.Generate(p).Wiki.EachArticle(func(a *wikimedia.Article) {
		for _, rev := range a.Revisions {
			texts = append(texts, rev.Text)
			bytes += len(rev.Text)
		}
	})
	buf := digestSink.cited
	legs := []struct {
		name string
		read func(text string)
	}{
		{"parse", func(text string) {
			buf = buf[:0]
			for _, cl := range wikitext.Parse(text).CitedLinks() {
				buf = append(buf, wikitext.CitedURL{URL: cl.URL, ArchiveURL: cl.ArchiveURL(), DeadLinkBot: cl.DeadLinkBot(), Dead: cl.IsDead()})
			}
		}},
		{"cited", func(text string) { buf = wikitext.AppendCited(buf[:0], text) }},
		{"digest", func(text string) { digestSink.cited, digestSink.cats = wikitext.AppendDigest(nil, nil, text) }},
	}
	for _, leg := range legs {
		b.Run(leg.name, func(b *testing.B) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, text := range texts {
					leg.read(text)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(bytes), "ns/byte")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N)/float64(len(texts)), "allocs/revision")
		})
	}
	digestSink.cited = buf
}

// digestSink keeps BenchmarkRevisionDigest's results live.
var digestSink struct {
	cited []wikitext.CitedURL
	cats  []string
}
