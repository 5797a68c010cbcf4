package wikitext

import (
	"testing"
)

// FuzzParse checks that the wikitext parser never panics and that
// rendering is a fixed point under re-parsing, for arbitrary inputs.
// Runs with the seed corpus under plain `go test`; use
// `go test -fuzz=FuzzParse ./internal/wikitext` to explore further.
func FuzzParse(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		doc := Parse(src) // must not panic
		out1 := doc.Render()
		doc2 := Parse(out1)
		out2 := doc2.Render()
		if out1 != out2 {
			t.Fatalf("render not a fixed point:\nsrc : %q\nout1: %q\nout2: %q", src, out1, out2)
		}
		// CitedLinks must also be stable and non-panicking.
		a := doc.CitedLinks()
		b := doc2.CitedLinks()
		if len(a) != len(b) {
			t.Fatalf("cited links unstable: %d vs %d for %q", len(a), len(b), src)
		}
	})
}

// parseSeeds seed FuzzParse and FuzzDigestDifferential.
var parseSeeds = []string{
	"",
	"plain prose",
	"{{cite web|url=http://h.com/a|title=T}}",
	"<ref>{{cite web|url=http://h.com/a}}</ref>",
	"<ref name=x/>",
	"[[Category:Things]] [[Link|label]]",
	"[http://h.com/a A] http://bare.com/x.",
	"{{a|{{b|c}}|d=[[e]]}}",
	"{{unclosed",
	"[[unclosed",
	"<ref>unclosed",
	"<!-- comment {{x}} -->",
	"<!-- unclosed comment",
	"{{dead link|date=July 2021|bot=InternetArchiveBot}}",
	"|}}{{|[]][[",
	"<REF NAME=\"Q\">x</REF>",
	"{{x|a=b=c|=d}}",
	"<ref name=00\"000>", // a quote inside an unquoted ref name
}
