// Package wikitext parses and renders the subset of MediaWiki markup
// the study needs: templates (with nesting), <ref> tags, external
// links, wiki links, and categories.
//
// The reproduction's bots (internal/iabot, internal/waybackmedic) edit
// articles the way the real ones do — by rewriting wikitext — so the
// parser is paired with a renderer, and mutations happen on the parsed
// document. Round-tripping is canonicalizing rather than byte-exact:
// templates re-render in {{name|k=v}} form with original parameter
// order preserved.
package wikitext

import (
	"strings"
)

// Document is a parsed sequence of wikitext nodes.
type Document struct {
	Nodes []Node
}

// Node is one piece of a document. Implementations: *Text, *Template,
// *ExtLink, *WikiLink, *Ref.
type Node interface {
	render(b *strings.Builder)
}

// Text is a run of plain wikitext.
type Text struct {
	Value string
}

func (t *Text) render(b *strings.Builder) { b.WriteString(t.Value) }

// Param is one template parameter. Positional parameters have an empty
// Key.
type Param struct {
	Key   string
	Value string
}

// Template is a {{name|...}} transclusion.
type Template struct {
	Name   string
	Params []Param
}

func (t *Template) render(b *strings.Builder) {
	b.WriteString("{{")
	b.WriteString(t.Name)
	for _, p := range t.Params {
		b.WriteByte('|')
		if p.Key != "" {
			b.WriteString(p.Key)
			b.WriteByte('=')
		}
		b.WriteString(p.Value)
	}
	if len(t.Params) == 0 && strings.HasSuffix(t.Name, "}") {
		// Parsing trimmed the space that kept the name's '}' apart
		// from the closer; without it "}}}" would close one early.
		b.WriteByte(' ')
	}
	b.WriteString("}}")
}

// Get returns the value of the named parameter (case-insensitive key
// match, surrounding space trimmed) and whether it was present.
func (t *Template) Get(key string) (string, bool) {
	for _, p := range t.Params {
		if strings.EqualFold(p.Key, key) {
			return strings.TrimSpace(p.Value), true
		}
	}
	return "", false
}

// Set replaces the named parameter's value, appending the parameter
// when absent.
func (t *Template) Set(key, value string) {
	for i := range t.Params {
		if strings.EqualFold(t.Params[i].Key, key) {
			t.Params[i].Value = value
			return
		}
	}
	t.Params = append(t.Params, Param{Key: key, Value: value})
}

// NameIs reports whether the template's name matches (case-insensitive,
// space/underscore-insensitive, as MediaWiki treats template names).
func (t *Template) NameIs(name string) bool {
	return canonicalName(t.Name) == canonicalName(name)
}

func canonicalName(n string) string {
	n = strings.TrimSpace(strings.ToLower(n))
	return strings.ReplaceAll(n, "_", " ")
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
// have a nil Body.
type Ref struct {
	Name string
	Body *Document
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
	b.WriteString("</ref>")
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

// CanonicalCategory returns the canonical form of a category name —
// the form HasCategory matches under (lowercased, trimmed,
// underscores as spaces). Exported so persisted category indexes
// (internal/persist format v4) key categories exactly the way live
// membership checks do.
func CanonicalCategory(name string) string { return canonicalName(name) }

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
