package wikitext

import (
	"slices"
	"strings"
)

// The parse tree the package's writers used before Apply, kept as the
// reference Apply and the digest scan are held to: Parse builds a
// mutable node tree from the scanner's constructs, CitedLink's methods
// edit it, and Render writes the whole document back.

// Parse parses wikitext into a Document. The parser is tolerant:
// malformed markup (unterminated templates, stray brackets) degrades
// to plain text rather than failing, because real Wikipedia dumps —
// and our simulated articles containing user typos — are messy.
func Parse(src string) *Document {
	p := &parser{newScanner(src)}
	doc, _ := p.parseUntil(false)
	return doc
}

// parser builds a Document from the constructs the scanner yields.
type parser struct{ scanner }

// parseUntil consumes nodes until end of input or, inside a <ref>
// body, until refClose, which is consumed as well; closed reports
// which. The prose between two constructs, including any that failed
// to scan, is one Text node.
func (p *parser) parseUntil(inRef bool) (doc *Document, closed bool) {
	doc = &Document{}
	for {
		textStart := p.pos
		t := p.next(inRef)
		if t.start > textStart {
			doc.Nodes = append(doc.Nodes, &Text{Value: p.src[textStart:t.start]})
		}
		var n Node
		switch t.kind {
		case tokEnd:
			return doc, t.start < p.pos // refClose was consumed
		case tokComment:
			n = &Comment{Value: t.a}
		case tokRef:
			ref := &Ref{Name: refNameAttr(p.src[t.start:p.pos])}
			var closed bool
			ref.Body, closed = p.parseUntil(true)
			ref.Unclosed = !closed
			n = ref
		case tokRefSelf:
			n = &Ref{Name: refNameAttr(p.src[t.start:p.pos])}
		case tokTemplate:
			n = newTemplate(t.a, t.b, t.n)
		case tokWikiLink:
			n = &WikiLink{Target: t.a, Label: t.b}
		case tokExtLink:
			n = &ExtLink{URL: t.a, Label: t.b}
		case tokBareURL:
			n = &ExtLink{URL: t.a, Bare: true}
		}
		doc.Nodes = append(doc.Nodes, n)
	}
}

// Document is a parsed sequence of wikitext nodes.
type Document struct {
	Nodes []Node
}

// Node is one piece of a document. Implementations: *Text, *Comment,
// *Template, *ExtLink, *WikiLink, *Ref.
type Node interface {
	render(b *strings.Builder)
}

// Text is a run of plain wikitext.
type Text struct {
	Value string
}

func (t *Text) render(b *strings.Builder) { b.WriteString(t.Value) }

// Comment is an HTML comment (<!-- ... -->), preserved verbatim so
// editors' notes survive bot rewrites.
type Comment struct {
	Value string // inner text, without the delimiters
}

func (c *Comment) render(b *strings.Builder) {
	b.WriteString("<!--")
	b.WriteString(c.Value)
	b.WriteString("-->")
}

// NameIs reports whether the template's name matches (case-insensitive,
// space/underscore-insensitive, as MediaWiki treats template names).
func (t *Template) NameIs(name string) bool {
	return canonicalName(t.Name) == canonicalName(name)
}

// ExtLink is a bracketed external link [url label] or a bare URL that
// appeared in link position.
type ExtLink struct {
	URL   string
	Label string
	// Bare marks a URL that appeared without brackets.
	Bare bool
}

func (e *ExtLink) render(b *strings.Builder) {
	if e.Bare {
		b.WriteString(e.URL)
		return
	}
	b.WriteByte('[')
	b.WriteString(e.URL)
	if e.Label != "" {
		b.WriteByte(' ')
		b.WriteString(e.Label)
	}
	b.WriteByte(']')
}

// WikiLink is an internal [[Target]] or [[Target|label]] link;
// categories are WikiLinks whose target starts with "Category:".
type WikiLink struct {
	Target string
	Label  string
}

func (w *WikiLink) render(b *strings.Builder) {
	b.WriteString("[[")
	b.WriteString(w.Target)
	if w.Label != "" {
		b.WriteByte('|')
		b.WriteString(w.Label)
	}
	b.WriteString("]]")
}

// IsCategory reports whether the link is a category membership.
func (w *WikiLink) IsCategory() bool {
	return strings.HasPrefix(canonicalName(w.Target), "category:")
}

// CategoryName returns the category name (without the namespace
// prefix), or "" for non-category links.
func (w *WikiLink) CategoryName() string {
	if !w.IsCategory() {
		return ""
	}
	t := strings.TrimSpace(w.Target)
	if i := strings.IndexByte(t, ':'); i >= 0 {
		return strings.TrimSpace(t[i+1:])
	}
	return ""
}

// Ref is a <ref>...</ref> footnote. Self-closing refs (<ref name=x/>)
// have a nil Body. Unclosed marks a body that ran to the end of the
// text without its refClose (the closer was taken by a nested ref);
// it renders without one, so rendering adds no closer the source
// lacked.
type Ref struct {
	Name     string
	Body     *Document
	Unclosed bool
}

func (r *Ref) render(b *strings.Builder) {
	b.WriteString("<ref")
	if r.Name != "" {
		// Quote with a delimiter the name does not contain, so the
		// rendered tag re-parses to the same name. A name holding both
		// quotes can only have been parsed from the unquoted form,
		// which has no space, '/' or '>' in it.
		quote := `"`
		if strings.Contains(r.Name, `"`) {
			quote = `'`
			if strings.Contains(r.Name, `'`) {
				quote = ""
			}
		}
		b.WriteString(" name=")
		b.WriteString(quote)
		b.WriteString(r.Name)
		b.WriteString(quote)
	}
	if r.Body == nil {
		b.WriteString(" />")
		return
	}
	b.WriteString(">")
	b.WriteString(r.Body.Render())
	if !r.Unclosed {
		b.WriteString("</ref>")
	}
}

// Render serializes the document back to wikitext.
func (d *Document) Render() string {
	var b strings.Builder
	for _, n := range d.Nodes {
		n.render(&b)
	}
	return b.String()
}

// Categories returns the names of all categories the document belongs
// to, in order of appearance.
func (d *Document) Categories() []string {
	var cats []string
	d.Walk(func(n Node) {
		if wl, ok := n.(*WikiLink); ok && wl.IsCategory() {
			cats = append(cats, wl.CategoryName())
		}
	})
	return cats
}

// HasCategory reports whether the document is in the named category
// (case-insensitive).
func (d *Document) HasCategory(name string) bool {
	want := canonicalName(name)
	for _, c := range d.Categories() {
		if canonicalName(c) == want {
			return true
		}
	}
	return false
}

// AddCategory appends a category link at the end of the document if
// not already present.
func (d *Document) AddCategory(name string) {
	if d.HasCategory(name) {
		return
	}
	d.Nodes = append(d.Nodes,
		&Text{Value: "\n"},
		&WikiLink{Target: "Category:" + name})
}

// RemoveCategory removes every link to the named category.
func (d *Document) RemoveCategory(name string) {
	want := canonicalName(name)
	keep := d.Nodes[:0]
	for _, n := range d.Nodes {
		if wl, ok := n.(*WikiLink); ok && wl.IsCategory() && canonicalName(wl.CategoryName()) == want {
			continue
		}
		keep = append(keep, n)
	}
	d.Nodes = keep
	for _, n := range d.Nodes {
		if r, ok := n.(*Ref); ok && r.Body != nil {
			r.Body.RemoveCategory(name)
		}
	}
}

// Walk calls fn for every node in the document, descending into ref
// bodies. Templates' parameters are not descended into (their values
// are stored as raw text).
func (d *Document) Walk(fn func(Node)) {
	for _, n := range d.Nodes {
		fn(n)
		if r, ok := n.(*Ref); ok && r.Body != nil {
			r.Body.Walk(fn)
		}
	}
}

// CitedLink is one external reference in an article together with its
// citation context: the {{cite ...}} template or bracketed link it
// came from, the enclosing <ref> if any, and any adjacent maintenance
// templates ({{dead link}}, {{webarchive}}).
type CitedLink struct {
	// URL is the cited external URL.
	URL string
	// Cite is the {{cite ...}} template the URL came from, nil when
	// the URL is a plain external link.
	Cite *Template
	// Link is the external link node the URL came from, nil when the
	// URL came from a cite template.
	Link *ExtLink
	// Ref is the enclosing <ref> tag, nil for links in body text.
	Ref *Ref
	// DeadLink is the adjacent {{dead link}} template, nil when the
	// link is not tagged.
	DeadLink *Template
	// Webarchive is the adjacent {{webarchive}} template, if any.
	Webarchive *Template

	container *Document
	index     int // index of the URL-bearing node within container
}

// ArchiveURL returns the archived-copy URL attached to the citation —
// from the cite template's archive-url parameter or an adjacent
// {{webarchive}} — or "".
func (c *CitedLink) ArchiveURL() string {
	if c.Cite != nil {
		if v, ok := c.Cite.Get("archive-url"); ok && v != "" {
			return v
		}
	}
	if c.Webarchive != nil {
		if v, ok := c.Webarchive.Get("url"); ok {
			return v
		}
	}
	return ""
}

// IsDead reports whether the link carries a {{dead link}} tag.
func (c *CitedLink) IsDead() bool { return c.DeadLink != nil }

// DeadLinkBot returns the bot= parameter of the {{dead link}} tag, or
// "" when untagged or tagged manually.
func (c *CitedLink) DeadLinkBot() string {
	if c.DeadLink == nil {
		return ""
	}
	v, _ := c.DeadLink.Get("bot")
	return v
}

// MarkDead tags the link with {{dead link|date=...|bot=...}} directly
// after the URL-bearing node, mirroring InternetArchiveBot's edit
// style. No-op when already tagged.
func (c *CitedLink) MarkDead(date, bot string) {
	if c.DeadLink != nil {
		return
	}
	t := &Template{Name: "Dead link"}
	if date != "" {
		t.Set("date", date)
	}
	if bot != "" {
		t.Set("bot", bot)
	}
	t.Set("fix-attempted", "yes")
	c.insertAfter(t)
	c.DeadLink = t
	if c.Cite != nil {
		c.Cite.Set("url-status", "dead")
	}
}

// PatchWithArchive augments the citation with an archived copy: cite
// templates gain archive-url/archive-date/url-status=dead parameters;
// bare links gain a trailing {{webarchive}} template. Any existing
// {{dead link}} tag is removed, as IABot does when it later finds a
// usable copy.
func (c *CitedLink) PatchWithArchive(archiveURL, archiveDate string) {
	if c.Cite != nil {
		c.Cite.Set("archive-url", archiveURL)
		c.Cite.Set("archive-date", archiveDate)
		c.Cite.Set("url-status", "dead")
	} else {
		t := &Template{Name: "Webarchive"}
		t.Set("url", archiveURL)
		t.Set("date", archiveDate)
		c.insertAfter(t)
		c.Webarchive = t
	}
	c.RemoveDeadTag()
}

// RemoveDeadTag deletes an adjacent {{dead link}} node, reporting the
// link as no longer tagged. IABot's re-check path (and WaybackMedic)
// use this when a previously dead link turns out to be fixable.
func (c *CitedLink) RemoveDeadTag() {
	if c.DeadLink == nil {
		return
	}
	nodes := c.container.Nodes
	for i, n := range nodes {
		if n == Node(c.DeadLink) {
			c.container.Nodes = append(nodes[:i], nodes[i+1:]...)
			break
		}
	}
	c.DeadLink = nil
}

// insertAfter places node right after the URL-bearing node in the
// containing document.
func (c *CitedLink) insertAfter(node Node) {
	nodes := c.container.Nodes
	i := c.index
	if i < 0 || i >= len(nodes) {
		c.container.Nodes = append(nodes, node)
		return
	}
	out := make([]Node, 0, len(nodes)+2)
	out = append(out, nodes[:i+1]...)
	out = append(out, &Text{Value: " "}, node)
	out = append(out, nodes[i+1:]...)
	c.container.Nodes = out
	// Indices of previously-extracted CitedLinks after i are now
	// stale; callers re-extract after mutating, as the bots do.
}

// CitedLinks extracts every external reference in the document, in
// document order, pairing each with adjacent maintenance templates.
// A maintenance template "belongs" to the nearest preceding link in
// the same container when only whitespace separates them.
func (d *Document) CitedLinks() []*CitedLink {
	var out []*CitedLink
	collectContainer(d, nil, &out)
	for _, n := range d.Nodes {
		if r, ok := n.(*Ref); ok && r.Body != nil {
			collectContainer(r.Body, r, &out)
		}
	}
	return out
}

func collectContainer(doc *Document, ref *Ref, out *[]*CitedLink) {
	var adj adjacency
	for i, n := range doc.Nodes {
		switch v := n.(type) {
		case *Template:
			name := canonicalName(v.Name)
			switch {
			case slices.Contains(citeNames, name):
				url, _ := v.Get("url")
				*out = append(*out, &CitedLink{URL: url, Cite: v, Ref: ref, container: doc, index: i})
				adj.link(len(*out) - 1)
			case name == deadLinkName:
				if j, ok := adj.owner(); ok {
					(*out)[j].DeadLink = v
				}
			case name == webarchiveName:
				if j, ok := adj.owner(); ok {
					(*out)[j].Webarchive = v
				}
			default:
				adj.other()
			}
		case *ExtLink:
			*out = append(*out, &CitedLink{URL: v.URL, Link: v, Ref: ref, container: doc, index: i})
			adj.link(len(*out) - 1)
		case *Text:
			adj.text(v.Value)
		default:
			adj.other()
		}
	}
}

// ExternalURLs returns the set of distinct external URLs cited in the
// document, in first-appearance order.
func (d *Document) ExternalURLs() []string {
	seen := make(map[string]struct{})
	var out []string
	for _, cl := range d.CitedLinks() {
		if cl.URL == "" {
			continue
		}
		if _, ok := seen[cl.URL]; ok {
			continue
		}
		seen[cl.URL] = struct{}{}
		out = append(out, cl.URL)
	}
	return out
}

// refNameAttr extracts the name="..." (or name=x) attribute from a
// <ref ...> open tag. "name" is matched in place, case-insensitively:
// an offset into strings.ToLower(tag) can overrun tag, because lowering
// rewrites each invalid UTF-8 byte as the 3-byte U+FFFD.
func refNameAttr(tag string) string {
	i := 0
	for ; i+4 <= len(tag) && !strings.EqualFold(tag[i:i+4], "name"); i++ {
	}
	if i+4 > len(tag) {
		return ""
	}
	rest := tag[i+4:]
	rest = strings.TrimLeft(rest, " \t")
	if !strings.HasPrefix(rest, "=") {
		return ""
	}
	rest = strings.TrimLeft(rest[1:], " \t")
	if rest == "" {
		return ""
	}
	switch rest[0] {
	case '"', '\'':
		q := rest[0]
		if end := strings.IndexByte(rest[1:], q); end >= 0 {
			return rest[1 : 1+end]
		}
		return ""
	default:
		end := strings.IndexAny(rest, " \t/>")
		if end < 0 {
			end = len(rest)
		}
		return rest[:end]
	}
}
