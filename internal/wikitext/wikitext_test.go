package wikitext

import (
	"strings"
	"testing"
)

// templates returns every template in d (including inside refs) whose
// name matches, in document order.
func templates(d *Document, name string) []*Template {
	var out []*Template
	d.Walk(func(n Node) {
		if t, ok := n.(*Template); ok && t.NameIs(name) {
			out = append(out, t)
		}
	})
	return out
}

func TestParsePlainText(t *testing.T) {
	doc := Parse("just some plain prose, nothing else.")
	if len(doc.Nodes) != 1 {
		t.Fatalf("nodes = %d", len(doc.Nodes))
	}
	if doc.Render() != "just some plain prose, nothing else." {
		t.Errorf("render = %q", doc.Render())
	}
}

func TestParseTemplate(t *testing.T) {
	doc := Parse(`{{cite web|url=http://example.com/a|title=A Title|access-date=2015-01-02}}`)
	tmpls := templates(doc, "cite web")
	if len(tmpls) != 1 {
		t.Fatalf("templates = %d", len(tmpls))
	}
	tm := tmpls[0]
	if v, ok := tm.Get("url"); !ok || v != "http://example.com/a" {
		t.Errorf("url = %q, %v", v, ok)
	}
	if v, ok := tm.Get("title"); !ok || v != "A Title" {
		t.Errorf("title = %q", v)
	}
	if _, ok := tm.Get("missing"); ok {
		t.Error("missing param should be absent")
	}
}

func TestParseTemplateCaseInsensitive(t *testing.T) {
	doc := Parse(`{{Cite Web|url=http://x.com}}`)
	if len(templates(doc, "cite web")) != 1 {
		t.Error("template name matching should be case-insensitive")
	}
	doc2 := Parse(`{{dead_link|date=July 2021}}`)
	if len(templates(doc2, "dead link")) != 1 {
		t.Error("underscores should match spaces in template names")
	}
}

func TestParseNestedTemplate(t *testing.T) {
	doc := Parse(`{{outer|param={{inner|x=1}}|other=2}}`)
	tmpls := templates(doc, "outer")
	if len(tmpls) != 1 {
		t.Fatalf("outer templates = %d", len(tmpls))
	}
	if v, _ := tmpls[0].Get("param"); v != "{{inner|x=1}}" {
		t.Errorf("nested param = %q", v)
	}
	if v, _ := tmpls[0].Get("other"); v != "2" {
		t.Errorf("other = %q", v)
	}
}

func TestParsePositionalParams(t *testing.T) {
	doc := Parse(`{{lang|fr|bonjour}}`)
	tm := templates(doc, "lang")[0]
	if len(tm.Params) != 2 || tm.Params[0].Value != "fr" || tm.Params[1].Value != "bonjour" {
		t.Errorf("params = %+v", tm.Params)
	}
	if tm.Params[0].Key != "" {
		t.Error("positional param should have empty key")
	}
}

func TestParamValueWithEquals(t *testing.T) {
	doc := Parse(`{{cite web|url=http://h.com/x?a=1&b=2|title=T}}`)
	tm := templates(doc, "cite web")[0]
	if v, _ := tm.Get("url"); v != "http://h.com/x?a=1&b=2" {
		t.Errorf("url with query = %q", v)
	}
}

func TestUnterminatedTemplateDegradesToText(t *testing.T) {
	src := "before {{broken|never closed and more text"
	doc := Parse(src)
	if doc.Render() != src {
		t.Errorf("render = %q", doc.Render())
	}
	if len(templates(doc, "broken")) != 0 {
		t.Error("unterminated template must not parse")
	}
}

func TestParseExtLink(t *testing.T) {
	doc := Parse(`See [http://example.com/page Page Title] for details.`)
	var links []*ExtLink
	doc.Walk(func(n Node) {
		if el, ok := n.(*ExtLink); ok {
			links = append(links, el)
		}
	})
	if len(links) != 1 {
		t.Fatalf("links = %d", len(links))
	}
	if links[0].URL != "http://example.com/page" || links[0].Label != "Page Title" {
		t.Errorf("link = %+v", links[0])
	}
	if !strings.Contains(doc.Render(), "[http://example.com/page Page Title]") {
		t.Errorf("render = %q", doc.Render())
	}
}

func TestParseBareURL(t *testing.T) {
	doc := Parse(`Available at https://example.com/doc.pdf. More prose.`)
	var links []*ExtLink
	doc.Walk(func(n Node) {
		if el, ok := n.(*ExtLink); ok {
			links = append(links, el)
		}
	})
	if len(links) != 1 {
		t.Fatalf("links = %v", links)
	}
	// Trailing period belongs to the prose.
	if links[0].URL != "https://example.com/doc.pdf" {
		t.Errorf("bare url = %q", links[0].URL)
	}
	if !links[0].Bare {
		t.Error("should be marked bare")
	}
}

func TestParseWikiLinkAndCategory(t *testing.T) {
	doc := Parse(`[[Mars Express|the orbiter]] text [[Category:Space missions]]`)
	var wls []*WikiLink
	doc.Walk(func(n Node) {
		if wl, ok := n.(*WikiLink); ok {
			wls = append(wls, wl)
		}
	})
	if len(wls) != 2 {
		t.Fatalf("wikilinks = %d", len(wls))
	}
	if wls[0].Target != "Mars Express" || wls[0].Label != "the orbiter" {
		t.Errorf("link = %+v", wls[0])
	}
	if !wls[1].IsCategory() || wls[1].CategoryName() != "Space missions" {
		t.Errorf("category = %+v", wls[1])
	}
	cats := doc.Categories()
	if len(cats) != 1 || cats[0] != "Space missions" {
		t.Errorf("categories = %v", cats)
	}
}

func TestParseRef(t *testing.T) {
	doc := Parse(`Claim.<ref name="src1">{{cite web|url=http://h.com/a|title=T}}</ref> More.`)
	var refs []*Ref
	for _, n := range doc.Nodes {
		if r, ok := n.(*Ref); ok {
			refs = append(refs, r)
		}
	}
	if len(refs) != 1 {
		t.Fatalf("refs = %d", len(refs))
	}
	if refs[0].Name != "src1" {
		t.Errorf("ref name = %q", refs[0].Name)
	}
	if refs[0].Body == nil || len(templates(refs[0].Body, "cite web")) != 1 {
		t.Error("ref body should contain the cite template")
	}
	out := doc.Render()
	if !strings.Contains(out, `<ref name="src1">`) || !strings.Contains(out, "</ref>") {
		t.Errorf("render = %q", out)
	}
}

func TestParseSelfClosingRef(t *testing.T) {
	doc := Parse(`Claim.<ref name="src1" /> More.`)
	var refs []*Ref
	for _, n := range doc.Nodes {
		if r, ok := n.(*Ref); ok {
			refs = append(refs, r)
		}
	}
	if len(refs) != 1 || refs[0].Body != nil || refs[0].Name != "src1" {
		t.Fatalf("refs = %+v", refs)
	}
	if !strings.Contains(doc.Render(), "/>") {
		t.Errorf("render = %q", doc.Render())
	}
}

func TestParseRefUnquotedName(t *testing.T) {
	cases := []struct {
		src, name, rendered string
	}{
		{`<ref name=abc>body</ref>`, `abc`, `<ref name="abc">body</ref>`},
		// A name containing a quote must not be wrapped in that quote:
		// name="00"000" would re-parse as 00 and orphan the ref's uses.
		{`<ref name=00"000>body</ref>`, `00"000`, `<ref name='00"000'>body</ref>`},
		{`<ref name=it's>body</ref>`, `it's`, `<ref name="it's">body</ref>`},
		{`<ref name=a"b'c />`, `a"b'c`, `<ref name=a"b'c />`},
	}
	for _, c := range cases {
		doc := Parse(c.src)
		r, ok := doc.Nodes[0].(*Ref)
		if !ok || r.Name != c.name {
			t.Fatalf("Parse(%q) nodes = %+v, want ref named %q", c.src, doc.Nodes, c.name)
		}
		out := doc.Render()
		if out != c.rendered {
			t.Errorf("Render(%q) = %q, want %q", c.src, out, c.rendered)
		}
		if r2, ok := Parse(out).Nodes[0].(*Ref); !ok || r2.Name != c.name {
			t.Errorf("re-parse of %q lost the name %q", out, c.name)
		}
	}
}

func TestTemplateSet(t *testing.T) {
	tm := &Template{Name: "cite web"}
	tm.Set("url", "http://a.com")
	tm.Set("title", "T")
	tm.Set("url", "http://b.com") // overwrite
	if v, _ := tm.Get("url"); v != "http://b.com" {
		t.Errorf("url = %q", v)
	}
	if len(tm.Params) != 2 {
		t.Errorf("params = %d", len(tm.Params))
	}
}

func TestCategoriesAddRemove(t *testing.T) {
	doc := Parse("Article text.")
	doc.AddCategory("Articles with permanently dead external links")
	if !doc.HasCategory("articles with permanently dead external links") {
		t.Error("HasCategory should be case-insensitive")
	}
	// Adding again is a no-op.
	doc.AddCategory("Articles with permanently dead external links")
	if len(doc.Categories()) != 1 {
		t.Errorf("categories = %v", doc.Categories())
	}
	doc.RemoveCategory("Articles with permanently dead external links")
	if doc.HasCategory("Articles with permanently dead external links") {
		t.Error("category should be removed")
	}
}

func TestRoundTripRealisticArticle(t *testing.T) {
	src := `'''06:21:03:11 Up Evil''' is an album.<ref>{{cite web|url=https://www.baltimoresun.com/news/story.html|title=Review|access-date=2014-03-7}}</ref>

== References ==
Also see [http://www.fishman.com/artists/steve Steve's page] and more.

[[Category:1994 albums]]
`
	doc := Parse(src)
	out := doc.Render()
	// Semantic round-trip: re-parsing the render gives the same links,
	// templates, and categories.
	doc2 := Parse(out)
	if len(templates(doc2, "cite web")) != 1 {
		t.Error("cite survived")
	}
	urls1 := doc.ExternalURLs()
	urls2 := doc2.ExternalURLs()
	if len(urls1) != 2 || len(urls2) != 2 || urls1[0] != urls2[0] || urls1[1] != urls2[1] {
		t.Errorf("urls = %v vs %v", urls1, urls2)
	}
	if !doc2.HasCategory("1994 albums") {
		t.Error("category survived")
	}
}

func TestParseComments(t *testing.T) {
	doc := Parse(`before <!-- editor note: {{not a template}} [http://x.com not a link] --> after`)
	var comments []*Comment
	doc.Walk(func(n Node) {
		if c, ok := n.(*Comment); ok {
			comments = append(comments, c)
		}
	})
	if len(comments) != 1 {
		t.Fatalf("comments = %d", len(comments))
	}
	// Markup inside comments is inert.
	if len(templates(doc, "not a template")) != 0 {
		t.Error("template inside comment parsed")
	}
	if len(doc.ExternalURLs()) != 0 {
		t.Error("link inside comment parsed")
	}
	// Render round-trips the comment.
	if !strings.Contains(doc.Render(), "<!-- editor note:") {
		t.Errorf("render = %q", doc.Render())
	}
}

func TestParseUnterminatedComment(t *testing.T) {
	doc := Parse("text <!-- runs to the end {{x}}")
	if len(templates(doc, "x")) != 0 {
		t.Error("template inside unterminated comment parsed")
	}
	if doc.Render() != "text <!-- runs to the end {{x}}-->" {
		// MediaWiki-style: the unterminated comment swallows the rest;
		// rendering closes it.
		t.Logf("render = %q (canonicalized)", doc.Render())
	}
}
