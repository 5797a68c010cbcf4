// Package wikitext reads and edits the subset of MediaWiki markup the
// study needs: templates (with nesting), <ref> tags, external links,
// wiki links, categories and comments.
//
// One scanner reads the grammar, and everything else is built on it.
// Readers take its digest (AppendCited, AppendDigest): each cited
// link's URL, archived copy and {{dead link}} tag, and the categories,
// with no tree built. Writers take Apply, which splices the bots' edits
// (a {{dead link}} tag, an archived copy, a category) into the text at
// the byte spans the same scan records, and keeps every other byte, as
// the real bots do. The parse tree the writers once edited and
// re-rendered whole is kept in the package's tests, as the reference
// the digest and Apply are held to.
package wikitext

import (
	"strings"
)

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

// newTemplate builds the template the scanner read: its parameters,
// n of them in params, take one allocation of their final size.
func newTemplate(name, params string, n int) *Template {
	t := &Template{Name: name}
	if n > 0 {
		t.Params = make([]Param, n)
		for i := range t.Params {
			t.Params[i], params = cutParam(params)
		}
	}
	return t
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

// canonicalName is the form template and category names match under:
// lowercased, trimmed, underscores as spaces, as MediaWiki treats them.
func canonicalName(n string) string {
	n = strings.TrimSpace(strings.ToLower(n))
	return strings.ReplaceAll(n, "_", " ")
}

// CanonicalCategory returns the canonical form of a category name —
// the form the digest lists categories in (lowercased, trimmed,
// underscores as spaces). Exported so persisted category indexes
// (internal/persist format v4) key categories exactly the way live
// membership checks do.
func CanonicalCategory(name string) string { return canonicalName(name) }

// The recognized template names, in canonical form: the {{cite ...}}
// family members our simulated articles use, and the two maintenance
// templates.
var citeNames = []string{"cite web", "cite news", "cite journal", "citation"}

const (
	deadLinkName   = "dead link"
	webarchiveName = "webarchive"
)

// adjacency is the rule that pairs maintenance templates with links: a
// {{dead link}} or {{webarchive}} belongs to the nearest preceding link
// in its container when only whitespace separates them. A container's
// walk reports each construct in order: link for a link, text for
// prose, and other for any other construct but a maintenance template,
// which changes nothing.
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
