package wikitext

import (
	"slices"
	"testing"
)

// referenceDigest is what the digest scan is held to: a parse tree's
// CitedLinks and categories, read the way the wiki read every revision
// before the scan existed (appendCited and appendCategories).
func referenceDigest(src string) ([]CitedURL, []string) {
	doc := Parse(src)
	return appendCited(nil, doc), appendCategories(nil, doc)
}

// appendCited appends a CitedURL for each of doc's cited links, in
// CitedLinks order.
func appendCited(out []CitedURL, doc *Document) []CitedURL {
	for _, cl := range doc.CitedLinks() {
		out = append(out, CitedURL{
			URL:         cl.URL,
			ArchiveURL:  cl.ArchiveURL(),
			DeadLinkBot: cl.DeadLinkBot(),
			Dead:        cl.IsDead(),
		})
	}
	return out
}

// appendCategories appends the canonical name of each category of doc
// not yet in cats, walking doc as Document.Categories does.
func appendCategories(cats []string, doc *Document) []string {
	for _, n := range doc.Nodes {
		switch v := n.(type) {
		case *WikiLink:
			// CategoryName is "" for a non-category link, and for a
			// category link with an empty name.
			if name := v.CategoryName(); name != "" || v.IsCategory() {
				if cc := CanonicalCategory(name); !slices.Contains(cats, cc) {
					cats = append(cats, cc)
				}
			}
		case *Ref:
			if v.Body != nil {
				cats = appendCategories(cats, v.Body)
			}
		}
	}
	return cats
}

// digestSeeds are the adjacency rule's and the name matching's edge
// cases.
var digestSeeds = []string{
	// A nested ref: its links are not read, its categories are.
	"<ref>[http://a.com/x A]<ref>[http://b.com/y B] {{dead link}} [[Category:Inner]]</ref> {{dead link|bot=X}}</ref> [[Category:Outer]]",
	// A dead link after prose, after a comment, after another template.
	"[http://a.com/x A] see {{dead link|bot=B}}",
	"[http://a.com/x A] <!-- c --> {{dead link|bot=B}}",
	"[http://a.com/x A] {{citation needed}} {{dead link|bot=B}}",
	"[http://a.com/x A] \n\t {{dead link|bot=B}}",
	// Two adjacent dead-link templates: the second is the tag.
	"{{cite web|url=http://a.com/x}} {{dead link|bot=A}}{{Dead_link|bot=B|date=x}}",
	// {{webarchive}} with an empty url=, alone and after a cite's own
	// archive-url, and a second one replacing the first.
	"[http://a.com/x A] {{webarchive|url=|date=2020}}",
	"{{cite web|url=http://a.com/x|archive-url=http://w.org/1}}{{webarchive|url=http://w.org/2}}",
	"{{cite web|url=http://a.com/x|archive-url= }} {{webarchive|url=http://w.org/2}} {{webarchive|date=1}}",
	"{{cite web|URL=http://a.com/x|url=http://b.com/y|Archive-URL=|archive-url=http://w.org/1}}",
	// Names that canonicalise to a recognised one, and some that do not.
	"{{_cite web|url=http://a.com/x}} {{cite_web|url=http://b.com/y}} {{Cite  web|url=http://c.com/z}}",
	"{{CITATION|url=http://a.com/x}}{{dead lin\u212a|bot=K}} {{dead link_|bot=U}}",
	"{{c\u0130te web|url=http://a.com/x}} {{cite web\xff|url=http://b.com/y}}",
	// A <ref> with no closer after it is text.
	"<ref>[http://a.com/x A] {{dead link}}",
	"<ref>a</ref> <ref>[http://b.com/y B] {{dead link}}",
	"<ref>{{a|</ref>}} [http://b.com/y B]",
	// Top-level links after ref bodies' come first.
	"<ref>[http://a.com/x]</ref> Further reading: http://b.com/y [[Category:C]] <ref>{{cite web|url=http://c.com/z}}</ref> http://d.com/w {{dead link}}",
	// Categories: canonical forms, repeats, the empty name, not-quite
	// categories.
	"[[Category:Foo_bar]] [[category: foo bar ]] [[CATEGORY:]] [[:Category:X]] [[Category :Y]] [[Category:\u0130x]] [[Category:ix]] [[Category:\xffz]] [[Category:\ufffdz]]",
}

// FuzzDigestDifferential holds the digest scan to the parse tree: the
// same cited links (URL, archive URL, dead tag, bot=) in CitedLinks
// order, and the same canonical categories, for arbitrary input, also
// when appended after what the buffers already hold.
func FuzzDigestDifferential(f *testing.F) {
	for _, s := range append(slices.Clone(parseSeeds), digestSeeds...) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		wantCited, wantCats := referenceDigest(src)
		cited, cats := AppendDigest(nil, nil, src)
		if !slices.Equal(cited, wantCited) {
			t.Fatalf("cited links differ for %q:\n got %+v\nwant %+v", src, cited, wantCited)
		}
		if !slices.Equal(cats, wantCats) {
			t.Fatalf("categories differ for %q:\n got %q\nwant %q", src, cats, wantCats)
		}
		held := CitedURL{URL: "http://held.com/"}
		if got := AppendCited([]CitedURL{held}, src); len(got) == 0 || got[0] != held || !slices.Equal(got[1:], wantCited) {
			t.Fatalf("AppendCited after one held link differs for %q:\n got %+v\nwant %+v after it", src, got, wantCited)
		}
		heldCat := "simulated articles"
		_, cats = AppendDigest(nil, []string{heldCat}, src)
		wantCats = appendCategories([]string{heldCat}, Parse(src))
		if !slices.Equal(cats, wantCats) {
			t.Fatalf("categories after %q differ for %q:\n got %q\nwant %q", heldCat, src, cats, wantCats)
		}
	})
}

// TestAppendCitedAllocs: the history fold's scan of a revision, into a
// buffer that holds its links, allocates nothing.
func TestAppendCitedAllocs(t *testing.T) {
	const src = "'''A''' is a subject.\n\nA claim.<ref>{{cite web|url=http://a.simtest/x|title=T|access-date=2010-01-01}} {{Dead link|date=May 2012|bot=InternetArchiveBot|fix-attempted=yes}}</ref>\n\n[[Category:Simulated articles]]\n" +
		"Further reading: http://b.simtest/y\nB.<ref name=\"b\">[http://c.simtest/z C] {{Webarchive|url=http://web.archive.org/web/2010/http://c.simtest/z|date=2010}}</ref>"
	var buf [8]CitedURL
	var cited []CitedURL
	if n := testing.AllocsPerRun(100, func() { cited = AppendCited(buf[:0], src) }); n != 0 {
		t.Errorf("AppendCited allocated %v times per run, want 0", n)
	}
	if want, _ := referenceDigest(src); !slices.Equal(cited, want) || len(want) != 3 {
		t.Errorf("AppendCited = %+v, want %+v", cited, want)
	}
}
