package worldgen

import "testing"

var generateSink *Universe

// BenchmarkGenerate times one whole generation at Scale(0.1), seed 1:
// the universe behind the benchmark harness's main fixture, timeline
// and all.
func BenchmarkGenerate(b *testing.B) {
	p := DefaultParams().Scale(0.1)
	p.Seed = 1
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		generateSink = Generate(p)
	}
}
