package wikitext

import (
	"slices"
	"strings"
)

// Edit is one change Apply makes: one of the bots' edits to a cited
// link, or to the article's categories.
type Edit struct {
	Op op
	// Link is the edited link's index in AppendCited order (link ops).
	Link int
	// Date is MarkDead's date= and Patch's archive date; Bot is
	// MarkDead's bot= ("" for a tag placed by hand).
	Date, Bot string
	// ArchiveURL is the archived copy Patch attaches.
	ArchiveURL string
	// Category names the category AddCategory and RemoveCategory change.
	Category string
}

type op uint8

// The ops. The zero Edit has none and changes nothing.
const (
	// MarkDead puts " {{Dead link|date=…|bot=…|fix-attempted=yes}}"
	// right after an untagged link, and sets a cite template's
	// url-status=dead. A tagged link stays as it is.
	MarkDead op = iota + 1
	// Patch sets a cite template's archive-url, archive-date and
	// url-status=dead, or puts " {{Webarchive|url=…|date=…}}" right
	// after any other link; then it drops the link's {{dead link}}.
	Patch
	// Untag drops the link's {{dead link}}.
	Untag
	// AddCategory appends "\n[[Category:…]]", unless the text is in the
	// category already, at any depth.
	AddCategory
	// RemoveCategory drops every link to the category, at any depth.
	RemoveCategory
)

// Apply returns text with edits made. Each is a splice at the byte
// spans one digest scan of text finds: an edited cite template is
// rendered anew, a tag or archive link goes in right after its link, a
// dropped {{dead link}} or category link is cut out (the space before
// it stays), and every other byte is kept. So link edits do not depend
// on their order; category edits come after them, in order. Apply
// panics when two edits name one link, or one names a link text lacks.
func Apply(text string, edits []Edit) string {
	cuts, appended := splices(text, edits)
	var b strings.Builder
	at := 0
	for _, c := range cuts {
		b.WriteString(text[at:c.start])
		b.WriteString(c.text)
		at = c.end
	}
	b.WriteString(text[at:])
	b.WriteString(appended)
	return b.String()
}

// splice replaces text[start:end].
type splice struct {
	start, end int
	text       string
}

// spans is where Apply's scan found the links and category links.
type spans struct {
	links []linkSpan // in AppendCited order
	cats  []catSpan
}

// linkSpan is one cited link's markup: the link's construct, ending at
// end, and its {{dead link}}, if tagged (dead[1] > 0).
type linkSpan struct {
	link   token
	end    int
	dead   [2]int
	edited bool
}

// catSpan is one category link and the name it gives.
type catSpan struct {
	start, end int
	name       string
}

// splices returns the splices edits make to text, in text order, and
// the category links they append to it.
func splices(text string, edits []Edit) (cuts []splice, appended string) {
	d := digester{scanner: newScanner(text), withCats: true, spans: &spans{}}
	d.container(0)
	type addedCat struct {
		name    string
		dropped bool // by a later RemoveCategory, which leaves its newline
	}
	var added []addedCat
	var removed []string // canonical names
	for _, e := range edits {
		switch want := canonicalName(e.Category); e.Op {
		case MarkDead, Patch, Untag:
			l := &d.spans.links[e.Link]
			if l.edited {
				panic("wikitext: two edits of one link")
			}
			l.edited = true
			cuts = l.splices(text, e, cuts)
		case AddCategory:
			in := slices.Contains(d.cats, want) && !slices.Contains(removed, want)
			if !in && !slices.ContainsFunc(added, func(c addedCat) bool { return !c.dropped && canonicalName(c.name) == want }) {
				added = append(added, addedCat{name: e.Category})
			}
		case RemoveCategory:
			removed = append(removed, want)
			for i, c := range added {
				added[i].dropped = c.dropped || canonicalName(c.name) == want
			}
		}
	}
	for _, c := range d.spans.cats {
		if slices.ContainsFunc(removed, func(want string) bool { return canonicalIs(c.name, want) }) {
			cuts = append(cuts, splice{c.start, c.end, ""})
		}
	}
	slices.SortFunc(cuts, func(a, b splice) int { return a.start - b.start })
	for _, c := range added {
		appended += "\n"
		if !c.dropped {
			appended += "[[Category:" + c.name + "]]"
		}
	}
	return cuts, appended
}

// splices appends to cuts the splices e, a link edit, makes to l.
func (l *linkSpan) splices(text string, e Edit, cuts []splice) []splice {
	tagged := l.dead[1] > 0
	if tagged && e.Op != MarkDead {
		cuts = append(cuts, splice{l.dead[0], l.dead[1], ""})
	}
	var cite, after *Template
	if l.link.kind == tokTemplate {
		cite = newTemplate(l.link.a, l.link.b, l.link.n)
	}
	switch {
	case e.Op == MarkDead && !tagged:
		after = &Template{Name: "Dead link"}
		if e.Date != "" {
			after.Set("date", e.Date)
		}
		if e.Bot != "" {
			after.Set("bot", e.Bot)
		}
		after.Set("fix-attempted", "yes")
		if cite != nil {
			cite.Set("url-status", "dead")
		}
	case e.Op == Patch && cite != nil:
		cite.Set("archive-url", e.ArchiveURL)
		cite.Set("archive-date", e.Date)
		cite.Set("url-status", "dead")
	case e.Op == Patch:
		after = &Template{Name: "Webarchive", Params: []Param{{"url", e.ArchiveURL}, {"date", e.Date}}}
	default:
		return cuts
	}
	var b strings.Builder
	if cite != nil {
		cite.render(&b)
	} else {
		b.WriteString(text[l.link.start:l.end])
	}
	if after != nil {
		b.WriteByte(' ')
		after.render(&b)
	}
	return append(cuts, splice{l.link.start, l.end, b.String()})
}
