package wikitext

import (
	"fmt"
	"strings"
	"testing"
)

// refParser is the byte-at-a-time parser Parse replaced: up to nine
// prefix compares at every position, strings.HasPrefix in the brace
// and parameter scanners. It is kept, test-only, as the reference
// FuzzParseDifferential compares the first-byte dispatch against; the
// leaf parsers (wiki link, external link, bare URL, comment, ref open
// tag) are shared with the production parser, which did not change
// them.
type refParser struct{ parser }

func referenceParse(src string) *Document {
	p := &refParser{parser{src: src, lastClose: lastRefClose(src)}}
	return p.parseUntil("")
}

func (p *refParser) parseUntil(term string) *Document {
	doc := &Document{}
	textStart := p.pos
	flush := func(end int) {
		if end > textStart {
			doc.Nodes = append(doc.Nodes, &Text{Value: p.src[textStart:end]})
		}
	}
	for p.pos < len(p.src) {
		if term != "" && p.hasPrefixFold(term) {
			flush(p.pos)
			p.pos += len(term)
			return doc
		}
		switch {
		case p.hasPrefix("<!--"):
			start := p.pos
			c := p.parseComment()
			flush(start)
			doc.Nodes = append(doc.Nodes, c)
			textStart = p.pos
		case p.hasPrefix("{{"):
			start := p.pos
			if t, ok := p.parseTemplate(); ok {
				flush(start)
				doc.Nodes = append(doc.Nodes, t)
				textStart = p.pos
				continue
			}
			p.pos = start + 2
		case p.hasPrefix("[["):
			start := p.pos
			if wl, ok := p.parseWikiLink(); ok {
				flush(start)
				doc.Nodes = append(doc.Nodes, wl)
				textStart = p.pos
				continue
			}
			p.pos = start + 2
		case p.hasPrefix("["):
			start := p.pos
			if el, ok := p.parseExtLink(); ok {
				flush(start)
				doc.Nodes = append(doc.Nodes, el)
				textStart = p.pos
				continue
			}
			p.pos = start + 1
		case p.hasPrefixFold("<ref"):
			start := p.pos
			if r, ok := p.parseRef(); ok {
				flush(start)
				doc.Nodes = append(doc.Nodes, r)
				textStart = p.pos
				continue
			}
			p.pos = start + 4
		case p.hasPrefix("http://") || p.hasPrefix("https://"):
			start := p.pos
			url := p.scanBareURL()
			if url != "" {
				flush(start)
				doc.Nodes = append(doc.Nodes, &ExtLink{URL: url, Bare: true})
				textStart = p.pos
				continue
			}
			p.pos = start + 4
		default:
			p.pos++
		}
	}
	flush(p.pos)
	return doc
}

func (p *refParser) parseTemplate() (*Template, bool) {
	end := refMatchBraces(p.src, p.pos)
	if end < 0 {
		return nil, false
	}
	inner := p.src[p.pos+2 : end-2]
	p.pos = end
	parts := refSplitTop(inner, '|')
	if len(parts) == 0 {
		return nil, false
	}
	t := &Template{Name: strings.TrimSpace(parts[0])}
	if t.Name == "" {
		return nil, false
	}
	for _, part := range parts[1:] {
		t.Params = append(t.Params, refSplitParam(part))
	}
	return t, true
}

func (p *refParser) parseRef() (*Ref, bool) {
	rest := p.src[p.pos:]
	gt := strings.IndexByte(rest, '>')
	if gt < 0 {
		return nil, false
	}
	openTag := rest[:gt+1]
	lower := strings.ToLower(openTag)
	if !strings.HasPrefix(lower, "<ref") {
		return nil, false
	}
	if len(openTag) > 4 && openTag[4] != ' ' && openTag[4] != '>' && openTag[4] != '/' && openTag[4] != '\t' {
		return nil, false
	}
	name := refNameAttr(openTag)
	if strings.HasSuffix(strings.TrimSpace(openTag[:len(openTag)-1]), "/") {
		p.pos += gt + 1
		return &Ref{Name: name}, true
	}
	if p.lastClose < p.pos+gt+1 {
		return nil, false
	}
	p.pos += gt + 1
	body := p.parseUntil("</ref>")
	return &Ref{Name: name, Body: body}, true
}

func refSplitParam(part string) Param {
	depth := 0
	for i := 0; i < len(part); i++ {
		switch {
		case strings.HasPrefix(part[i:], "{{") || strings.HasPrefix(part[i:], "[["):
			depth++
			i++
		case strings.HasPrefix(part[i:], "}}") || strings.HasPrefix(part[i:], "]]"):
			depth--
			i++
		case part[i] == '=' && depth == 0:
			key := strings.TrimSpace(part[:i])
			if key == "" {
				break
			}
			return Param{Key: key, Value: part[i+1:]}
		}
	}
	return Param{Value: part}
}

func refMatchBraces(s string, start int) int {
	depth := 0
	for i := start; i < len(s); i++ {
		switch {
		case strings.HasPrefix(s[i:], "{{"):
			depth++
			i++
		case strings.HasPrefix(s[i:], "}}"):
			depth--
			i++
			if depth == 0 {
				return i + 1
			}
		}
	}
	return -1
}

func refSplitTop(s string, sep byte) []string {
	var parts []string
	depth := 0
	last := 0
	for i := 0; i < len(s); i++ {
		switch {
		case strings.HasPrefix(s[i:], "{{") || strings.HasPrefix(s[i:], "[["):
			depth++
			i++
		case strings.HasPrefix(s[i:], "}}") || strings.HasPrefix(s[i:], "]]"):
			depth--
			i++
		case s[i] == sep && depth == 0:
			parts = append(parts, s[last:i])
			last = i + 1
		}
	}
	parts = append(parts, s[last:])
	return parts
}

// dumpTree writes the node tree with each node's type and fields, so
// two trees that merely render alike (a comment against the same bytes
// as text) still compare unequal. It returns the node count.
func dumpTree(b *strings.Builder, d *Document) int {
	n := len(d.Nodes)
	for _, node := range d.Nodes {
		switch v := node.(type) {
		case *Ref:
			fmt.Fprintf(b, "Ref{%q", v.Name)
			if v.Body != nil {
				b.WriteString(" body[")
				n += dumpTree(b, v.Body)
				b.WriteString("]")
			}
			b.WriteString("}")
		default:
			fmt.Fprintf(b, "%T%+v", v, v)
		}
		b.WriteByte(';')
	}
	return n
}

// describeLinks flattens CitedLinks to the facts the study reads.
func describeLinks(d *Document) []string {
	var out []string
	for _, cl := range d.CitedLinks() {
		out = append(out, fmt.Sprintf("url=%q dead=%v bot=%q archive=%q inref=%v",
			cl.URL, cl.IsDead(), cl.DeadLinkBot(), cl.ArchiveURL(), cl.Ref != nil))
	}
	return out
}

// FuzzParseDifferential holds Parse to the reference parser: same
// rendering, same node count, same cited links, for arbitrary input.
func FuzzParseDifferential(f *testing.F) {
	seeds := []string{
		"",
		"h", "ht", "http", "http:/", "http://", "https://",
		"HTTP://x.com/a",
		"the thing http://x.com/a",
		"<", "<r", "<re", "<ref", "<!-", "<!--",
		"<ref>a</REF>b",
		"<ref>h</ref>",
		"<ref>see http://x.com/a</ref>",
		"<ref>a h</ref> h</ref>",
		"<REF name=x>{{Cite web|url=http://a.com/b}} {{dead link|bot=InternetArchiveBot}}</Ref> tail",
		"<refx>a</ref>",
		"</ref>",
		"{", "{{", "{{}}", "{{ }}", "{{a", "{ {a}}", "{{a|b={{c|[[d|e]]}}|f}}",
		"[", "[[", "[[a", "[[http://x.com a]", "[http://x.com/a b] [https://y.com]", "[htp://x.com]",
		"{{cite web|url=http://h.com/a|archive-url=http://web.archive.org/web/2020/http://h.com/a}}",
		"[http://h.com/a A] {{webarchive|url=http://web.archive.org/web/2020/http://h.com/a}}",
		"{{cite web|url=}} {{dead link}}",
		"{{x|a=b=c|=d|{{=}}=e|[[f=g]]=h}}",
		"}}]]|{{[[",
		"<!-- c --> {{a}} <!-- unclosed {{b}}",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		got, want := Parse(src), referenceParse(src)
		if g, w := got.Render(), want.Render(); g != w {
			t.Fatalf("Render differs for %q:\n got %q\nwant %q", src, g, w)
		}
		var gt, wt strings.Builder
		if g, w := dumpTree(&gt, got), dumpTree(&wt, want); g != w {
			t.Fatalf("node count differs for %q: got %d, want %d", src, g, w)
		}
		if gt.String() != wt.String() {
			t.Fatalf("tree differs for %q:\n got %s\nwant %s", src, gt.String(), wt.String())
		}
		g, w := describeLinks(got), describeLinks(want)
		if len(g) != len(w) {
			t.Fatalf("cited links differ for %q:\n got %q\nwant %q", src, g, w)
		}
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("cited link %d differs for %q:\n got %s\nwant %s", i, src, g[i], w[i])
			}
		}
	})
}
