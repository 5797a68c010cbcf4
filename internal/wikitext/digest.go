package wikitext

import (
	"slices"
	"strings"
	"unicode"
	"unicode/utf8"
)

// CitedURL is one cited link as the digest reads it.
type CitedURL struct {
	URL string
	// ArchiveURL is the attached archived copy ("" when none): the cite
	// template's archive-url, or else the url= of an adjacent
	// {{webarchive}}.
	ArchiveURL string
	// DeadLinkBot is the bot= parameter of the link's {{dead link}}
	// tag ("" when untagged or tagged by hand).
	DeadLinkBot string
	// Dead reports whether the link carries a {{dead link}} tag.
	Dead bool
}

// AppendCited appends to cited one CitedURL per cited link of src: each
// {{cite ...}} template, bracketed external link and bare URL, first
// those of the document's own text, then those of its <ref> bodies
// (not of refs nested in one), each in document order. That order is
// the one Edit.Link counts in. A {{dead link}} or {{webarchive}}
// belongs to the nearest preceding link in its container when only
// whitespace separates them. It is the digest scan: it reads the links
// off the scanner's constructs and builds no tree.
func AppendCited(cited []CitedURL, src string) []CitedURL {
	d := digester{scanner: newScanner(src), cited: cited, top: len(cited)}
	d.container(0)
	return d.cited
}

// AppendDigest is AppendCited that also appends to cats the canonical
// name (CanonicalCategory) of each category src is in, at any depth,
// not yet in cats, in order of appearance.
func AppendDigest(cited []CitedURL, cats []string, src string) ([]CitedURL, []string) {
	d := digester{scanner: newScanner(src), cited: cited, top: len(cited), cats: cats, withCats: true}
	d.container(0)
	return d.cited, d.cats
}

// digester reads links and categories off the scanner's constructs.
type digester struct {
	scanner
	cited []CitedURL
	// top is where the next top-level link goes: the document's own
	// links come before those of its ref bodies.
	top      int
	cats     []string
	withCats bool
	// spans, when set, records where the links and categories lie, for
	// Apply; the reads that only digest leave it nil.
	spans *spans
}

// container digests one container's constructs up to its end: the
// document (depth 0), a ref body in it (depth 1), or a ref nested in a
// ref body (depth 2 and more), whose links are not read but whose
// categories count.
func (d *digester) container(depth int) {
	links := depth <= 1
	var adj adjacency
	// archived: the cite template adj's last link came from has an
	// archive-url, which a {{webarchive}} does not override.
	archived := false
	for {
		textStart := d.pos
		t := d.next(depth > 0)
		adj.text(d.src[textStart:t.start])
		switch t.kind {
		case tokEnd:
			return
		case tokTemplate:
			if !links {
				break
			}
			switch {
			case isCite(t.a):
				url, archive := getParams(t.b, t.n, "url", "archive-url")
				adj.link(d.add(depth, CitedURL{URL: url, ArchiveURL: archive}, t))
				archived = archive != ""
			case canonicalIs(t.a, deadLinkName):
				if i, ok := adj.owner(); ok {
					d.cited[i].Dead = true
					d.cited[i].DeadLinkBot, _ = getParams(t.b, t.n, "bot", "")
					if d.spans != nil {
						d.spans.links[i].dead = [2]int{t.start, d.pos}
					}
				}
			case canonicalIs(t.a, webarchiveName):
				if i, ok := adj.owner(); ok && !archived {
					d.cited[i].ArchiveURL, _ = getParams(t.b, t.n, "url", "")
				}
			default:
				adj.other()
			}
		case tokExtLink, tokBareURL:
			if links {
				adj.link(d.add(depth, CitedURL{URL: t.a}, t))
				archived = false
			}
		case tokWikiLink:
			if d.withCats {
				d.category(t.a, t.start)
			}
			adj.other()
		case tokRef:
			adj.other()
			d.container(depth + 1)
		default:
			adj.other()
		}
	}
}

// add places c, read off t, among the links read so far, in
// AppendCited order, and returns its index: a ref body's link goes
// last, and a top-level link goes after the top level's before it,
// ahead of every ref body's. Its span goes alike, when spans are kept.
func (d *digester) add(depth int, c CitedURL, t token) int {
	i := len(d.cited)
	if depth == 0 {
		i = d.top
		d.top++
	}
	d.cited = slices.Insert(d.cited, i, c)
	if d.spans != nil {
		d.spans.links = slices.Insert(d.spans.links, i, linkSpan{link: t, end: d.pos})
	}
	return i
}

// category records the category a wiki link's target names, if it
// names one: a target whose canonical form begins "category:", naming
// what follows its first ':', trimmed. start is where the link begins.
func (d *digester) category(target string, start int) {
	if _, ok := canonicalPrefix(target, categoryPrefix); !ok {
		return
	}
	name := strings.TrimSpace(target[strings.IndexByte(target, ':')+1:])
	if d.spans != nil {
		d.spans.cats = append(d.spans.cats, catSpan{start: start, end: d.pos, name: name})
	}
	for _, c := range d.cats {
		if canonicalIs(name, c) {
			return
		}
	}
	d.cats = append(d.cats, canonicalName(name))
}

const categoryPrefix = "category:"

func isCite(name string) bool {
	for _, c := range citeNames {
		if canonicalIs(name, c) {
			return true
		}
	}
	return false
}

// getParams returns what Template.Get returns for key1 and for key2
// ("" for none) on the n parameters of params, splitting them once.
func getParams(params string, n int, key1, key2 string) (v1, v2 string) {
	found1, found2 := false, key2 == ""
	for ; n > 0 && !(found1 && found2); n-- {
		var p Param
		p, params = cutParam(params)
		switch {
		case !found1 && strings.EqualFold(p.Key, key1):
			v1, found1 = strings.TrimSpace(p.Value), true
		case !found2 && strings.EqualFold(p.Key, key2):
			v2, found2 = strings.TrimSpace(p.Value), true
		}
	}
	return v1, v2
}

// canonicalIs reports whether canonicalName(s) == canon, for s with no
// surrounding space, without building the canonical form.
func canonicalIs(s, canon string) bool {
	n, ok := canonicalPrefix(s, canon)
	return ok && n == len(s)
}

// canonicalPrefix reports whether canonicalName(s) begins with canon,
// for s with no surrounding space, and how many bytes of s that took.
// It maps s rune by rune as canonicalName does (strings.ToLower is
// unicode.ToLower on each rune, an invalid byte reading as U+FFFD; then
// '_' reads as ' '), so it allocates nothing.
func canonicalPrefix(s, canon string) (n int, ok bool) {
	for k := 0; k < len(canon); {
		if n == len(s) {
			return n, false
		}
		r, w := utf8.DecodeRuneInString(s[n:])
		if r = unicode.ToLower(r); r == '_' {
			r = ' '
		}
		c, cw := utf8.DecodeRuneInString(canon[k:])
		if r != c {
			return n, false
		}
		n, k = n+w, k+cw
	}
	return n, true
}
