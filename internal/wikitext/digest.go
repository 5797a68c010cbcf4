package wikitext

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// CitedURL is what a reader of one cited link gets without a parse
// tree: a CitedLink's URL, ArchiveURL(), DeadLinkBot() and IsDead().
type CitedURL struct {
	URL string
	// ArchiveURL is the attached archived copy ("" when none).
	ArchiveURL string
	// DeadLinkBot is the bot= parameter of the link's {{dead link}}
	// tag ("" when untagged or tagged by hand).
	DeadLinkBot string
	// Dead reports whether the link carries a {{dead link}} tag.
	Dead bool
}

// AppendCited appends to cited one CitedURL per link of
// Parse(src).CitedLinks(), in that order. It is the digest scan: it
// reads the links off the constructs Parse would build its nodes from,
// and builds none.
func AppendCited(cited []CitedURL, src string) []CitedURL {
	d := digester{scanner: newScanner(src), cited: cited, top: len(cited)}
	d.container(0)
	return d.cited
}

// AppendDigest is AppendCited that also appends to cats the canonical
// name (CanonicalCategory) of each of Parse(src).Categories() not yet
// in cats, in order of appearance.
func AppendDigest(cited []CitedURL, cats []string, src string) ([]CitedURL, []string) {
	d := digester{scanner: newScanner(src), cited: cited, top: len(cited), cats: cats, withCats: true}
	d.container(0)
	return d.cited, d.cats
}

// digester reads links and categories off the scanner's constructs.
type digester struct {
	scanner
	cited []CitedURL
	// top is where the next top-level link goes: CitedLinks lists the
	// document's own links before those of its ref bodies.
	top      int
	cats     []string
	withCats bool
}

// container digests one container's constructs up to its end: the
// document (depth 0), a ref body in it (depth 1), or a ref nested in a
// ref body (depth 2 and more), whose links CitedLinks does not read but
// whose categories count.
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
				adj.link(d.add(depth, CitedURL{URL: url, ArchiveURL: archive}))
				archived = archive != ""
			case canonicalIs(t.a, deadLinkName):
				if i, ok := adj.owner(); ok {
					d.cited[i].Dead = true
					d.cited[i].DeadLinkBot, _ = getParams(t.b, t.n, "bot", "")
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
				adj.link(d.add(depth, CitedURL{URL: t.a}))
				archived = false
			}
		case tokWikiLink:
			if d.withCats {
				d.category(t.a)
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

// add places c among the links read so far, in CitedLinks order, and
// returns its index: a ref body's link goes last, and a top-level link
// goes after the top level's before it, ahead of every ref body's.
func (d *digester) add(depth int, c CitedURL) int {
	d.cited = append(d.cited, c)
	if depth > 0 {
		return len(d.cited) - 1
	}
	i := d.top
	copy(d.cited[i+1:], d.cited[i:len(d.cited)-1])
	d.cited[i] = c
	d.top++
	return i
}

// category records the category a wiki link's target names, if it
// names one, as WikiLink.IsCategory and CategoryName read it.
func (d *digester) category(target string) {
	if _, ok := canonicalPrefix(target, categoryPrefix); !ok {
		return
	}
	name := strings.TrimSpace(target[strings.IndexByte(target, ':')+1:])
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
