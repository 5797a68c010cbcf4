package wikitext_test

import (
	"runtime"
	"testing"

	"permadead/internal/wikimedia"
	"permadead/internal/wikitext"
	"permadead/internal/worldgen"
)

// BenchmarkRevisionDigest reads every revision of the Scale(0.1),
// seed-1 universe per op, three ways: the reference parse tree and its
// CitedLinks (parse, what the history fold did before the digest
// scan), the digest scan of the cited links into a reused buffer
// (cited, the fold's read now), and the scan with categories (digest,
// what Wiki.Links keeps). It reports ns/byte of wikitext and
// allocs/revision.
func BenchmarkRevisionDigest(b *testing.B) {
	texts, bytes := corpusTexts()
	buf := digestSink.cited
	benchLegs(b, texts, bytes, []benchLeg{
		{"parse", func(text string) {
			buf = buf[:0]
			for _, cl := range wikitext.Parse(text).CitedLinks() {
				buf = append(buf, wikitext.CitedURL{URL: cl.URL, ArchiveURL: cl.ArchiveURL(), DeadLinkBot: cl.DeadLinkBot(), Dead: cl.IsDead()})
			}
		}},
		{"cited", func(text string) { buf = wikitext.AppendCited(buf[:0], text) }},
		{"digest", func(text string) { digestSink.cited, digestSink.cats = wikitext.AppendDigest(nil, nil, text) }},
	})
	digestSink.cited = buf
}

// BenchmarkRevisionEdit makes IABot's edit to every revision of the
// same universe per op, two ways: the reference tree's (tree: parse,
// tag the first link dead, add the category, render), and Apply's
// splice (splice). A revision citing nothing is left out.
func BenchmarkRevisionEdit(b *testing.B) {
	all, _ := corpusTexts()
	var texts []string
	bytes := 0
	for _, text := range all {
		if len(wikitext.AppendCited(nil, text)) > 0 {
			texts = append(texts, text)
			bytes += len(text)
		}
	}
	edits := []wikitext.Edit{
		{Op: wikitext.MarkDead, Link: 0, Date: "March 2018", Bot: "InternetArchiveBot"},
		{Op: wikitext.AddCategory, Category: "Articles with permanently dead external links"},
	}
	benchLegs(b, texts, bytes, []benchLeg{
		{"tree", func(text string) { editSink = wikitext.ReferenceApply(text, edits) }},
		{"splice", func(text string) { editSink = wikitext.Apply(text, edits) }},
	})
}

// corpusTexts returns the text of every revision of the Scale(0.1),
// seed-1 universe, and their length in bytes.
func corpusTexts() (texts []string, bytes int) {
	p := worldgen.DefaultParams().Scale(0.1)
	p.Seed = 1
	worldgen.Generate(p).Wiki.EachArticle(func(a *wikimedia.Article) {
		for _, rev := range a.Revisions {
			texts = append(texts, rev.Text)
			bytes += len(rev.Text)
		}
	})
	return texts, bytes
}

// benchLeg is one way a benchmark reads or edits a revision's text.
type benchLeg struct {
	name string
	read func(text string)
}

// benchLegs runs each leg over texts per op, reporting ns/byte of
// wikitext and allocs/revision.
func benchLegs(b *testing.B, texts []string, bytes int, legs []benchLeg) {
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
}

// digestSink and editSink keep the benchmarks' results live.
var (
	digestSink struct {
		cited []wikitext.CitedURL
		cats  []string
	}
	editSink string
)
