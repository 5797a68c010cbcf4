package wikitext

import (
	"slices"
	"strings"
	"testing"
)

// treeApply is what Apply is held to: the edits made on the reference
// parse tree, which is then rendered whole. The link edits go to the
// tree's CitedLinks, last link first, so that no insertion moves a link
// still to come, as the bots applied them; then the category edits, in
// order.
func treeApply(src string, edits []Edit) string {
	doc := Parse(src)
	cited := doc.CitedLinks()
	byLink := slices.Clone(edits)
	slices.SortStableFunc(byLink, func(a, b Edit) int { return b.Link - a.Link })
	for _, e := range byLink {
		switch e.Op {
		case MarkDead:
			cited[e.Link].MarkDead(e.Date, e.Bot)
		case Patch:
			cited[e.Link].PatchWithArchive(e.ArchiveURL, e.Date)
		case Untag:
			cited[e.Link].RemoveDeadTag()
		}
	}
	for _, e := range edits {
		switch e.Op {
		case AddCategory:
			doc.AddCategory(e.Category)
		case RemoveCategory:
			doc.RemoveCategory(e.Category)
		}
	}
	return doc.Render()
}

// The values pickEdits draws an edit's from.
var (
	editDates      = []string{"March 2018", "", "2011-01-01"}
	editBots       = []string{"InternetArchiveBot", ""}
	editArchives   = []string{"https://web.archive.org/web/20110101000000/http://h.com/a", ""}
	editCategories = []string{"Articles with permanently dead external links", "articles_with_permanently dead external links ", "Things", ""}
)

// pickEdits decodes pick into edits of a text citing n links, three
// bytes an edit: its op (none, a link op, or a category op), the link
// it names, and the values it carries. A link takes at most one edit;
// a pick naming a link again, or naming one when n is 0, is skipped.
func pickEdits(pick []byte, n int) []Edit {
	var edits []Edit
	taken := make([]bool, n)
	for ; len(pick) >= 3; pick = pick[3:] {
		e := Edit{Op: op(pick[0] % 6), Category: editCategories[int(pick[2])%len(editCategories)]}
		v := int(pick[2])
		e.Date, e.Bot, e.ArchiveURL = editDates[v%3], editBots[v/3%2], editArchives[v/6%2]
		if e.Op >= MarkDead && e.Op <= Untag {
			if n == 0 || taken[int(pick[1])%n] {
				continue
			}
			e.Link = int(pick[1]) % n
			taken[e.Link] = true
		}
		edits = append(edits, e)
	}
	return edits
}

// spliceSeeds are the texts FuzzSpliceDifferential starts from beyond
// the parse and digest seeds: several links of one container, tags
// with and without space before them, categories at every depth.
var spliceSeeds = []string{
	"See http://a.com/x and [http://b.com/y B], {{cite web|url=http://c.com/z|title=C}} and http://d.com/w.\n<ref>http://e.com/v [http://f.com/u F]</ref>",
	"{{cite web|url=http://a.com/x|url-status=live}}{{dead link|bot=A}} [http://b.com/y B]\t{{Dead_link|date=x}}{{webarchive|url=http://w.org/1}} [[Category:Articles with permanently dead external links]]",
	"<ref>[http://a.com/x A] {{dead link}} [[Category:Articles_with_permanently_dead_external_links]]<ref>[[Category:articles with permanently dead external links]]</ref></ref> [[Category:Things]]",
	"{{cite news|URL=http://a.com/x|Archive-URL=|ARCHIVE-DATE=2|url-status=}} text <!-- unclosed [[Category:Things]]",
}

// FuzzSpliceDifferential holds Apply to the reference tree. On text
// the tree renders as it reads (canon, a fixed point of rendering the
// tree), Apply must write what the tree's edits render, byte for byte,
// for any edits of its links and categories, in any order. On
// arbitrary text, Apply must not panic, and must keep every byte
// outside the constructs it edits.
//
// A render of the tree is mostly a fixed point already, but not when a
// ref body runs to the end of the text: its render adds the closer,
// after which a "<ref>" later in the body opens a ref of its own. Each
// round turns one more "<ref>" into a ref, so re-rendering settles.
func FuzzSpliceDifferential(f *testing.F) {
	for i, s := range slices.Concat(parseSeeds, digestSeeds, spliceSeeds) {
		f.Add(s, []byte{1, 0, byte(i), 2, 1, byte(i), 3, 2, byte(i), 4, 0, byte(i), 5, 0, byte(i + 1), 1, 3, byte(i), 2, 4, 0})
	}
	f.Fuzz(func(t *testing.T, src string, pick []byte) {
		canon := Parse(src).Render()
		for next := Parse(canon).Render(); next != canon; next = Parse(canon).Render() {
			canon = next
		}
		edits := pickEdits(pick, len(AppendCited(nil, canon)))
		if got, want := Apply(canon, edits), treeApply(canon, edits); got != want {
			t.Fatalf("Apply differs from the tree on %q with %+v:\n got %q\nwant %q", canon, edits, got, want)
		}

		edits = pickEdits(pick, len(AppendCited(nil, src)))
		cuts, appended := splices(src, edits)
		var kept strings.Builder
		at := 0
		for _, c := range cuts {
			if c.start < at || c.end < c.start || c.end > len(src) {
				t.Fatalf("splices of %q with %+v overlap or leave the text: %+v", src, edits, cuts)
			}
			s := newScanner(src)
			s.pos = c.start
			if tok := s.next(false); tok.start != c.start || s.pos != c.end {
				t.Fatalf("splice %+v of %q is not one construct", c, src)
			}
			kept.WriteString(src[at:c.start])
			kept.WriteString(c.text)
			at = c.end
		}
		kept.WriteString(src[at:])
		if got, want := Apply(src, edits), kept.String()+appended; got != want {
			t.Fatalf("Apply(%q, %+v) = %q, want the splices %+v made: %q", src, edits, got, cuts, want)
		}
	})
}

func TestApplyPanicsOnTwoEditsOfOneLink(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("two edits of one link did not panic")
		}
	}()
	Apply("[http://a.com/x A] {{dead link}}", []Edit{{Op: Untag}, {Op: MarkDead}})
}
