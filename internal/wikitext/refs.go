package wikitext

import (
	"slices"
	"strings"
)

// Template names the citation machinery recognizes. CiteTemplates are
// the {{cite ...}} family members our simulated articles use.
var CiteTemplates = []string{"cite web", "cite news", "cite journal", "citation"}

// Well-known maintenance template names.
const (
	DeadLinkTemplate   = "dead link"
	WebarchiveTemplate = "webarchive"
)

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

// adjacency is the rule that pairs maintenance templates with links,
// for CitedLinks and the digest alike: a {{dead link}} or {{webarchive}}
// belongs to the nearest preceding link in its container when only
// whitespace separates them. A container's walk reports each node in
// order: link for a link, text for prose, and other for any other node
// but a maintenance template, which changes nothing.
type adjacency struct {
	last int  // the latest link's index among the walk's links
	open bool // a link came, and only whitespace and maintenance templates since
}

func (a *adjacency) link(i int) { a.last, a.open = i, true }

func (a *adjacency) other() { a.open = false }

func (a *adjacency) text(s string) {
	if a.open && strings.TrimSpace(s) != "" {
		a.open = false
	}
}

// owner returns the index of the link a maintenance template at this
// point belongs to, with ok=false when it belongs to none.
func (a *adjacency) owner() (i int, ok bool) { return a.last, a.open }

// The recognized template names in canonical form, so that a
// template's name is canonicalized once and compared as is (what
// NameIs does per comparison).
var (
	citeNames      = canonicalNames(CiteTemplates)
	deadLinkName   = canonicalName(DeadLinkTemplate)
	webarchiveName = canonicalName(WebarchiveTemplate)
)

func canonicalNames(names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = canonicalName(n)
	}
	return out
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
