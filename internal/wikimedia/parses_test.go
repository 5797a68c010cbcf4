package wikimedia_test

import (
	"strings"
	"testing"

	"permadead/internal/wikimedia"
	"permadead/internal/worldgen"
)

// TestGenerationParsesEachRevisionOnce: generating the Scale(0.1),
// seed-1 universe parses revision text once per revision, for its
// RevisionLinks, plus once per edit that mutates a parsed document:
// IABot's patches and tags (1 268) and the hand-placed {{dead link}}
// tags (40). That is 3 348 + 1 268 + 40 = 4 656 parses; when every
// scan, edit-stream diff and history fold parsed afresh it was 27 942.
func TestGenerationParsesEachRevisionOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a universe")
	}
	p := worldgen.DefaultParams().Scale(0.1)
	p.Seed = 1
	before := wikimedia.Parses()
	u := worldgen.Generate(p)
	parses := wikimedia.Parses() - before

	revisions, handTags := 0, 0
	u.Wiki.EachArticle(func(a *wikimedia.Article) {
		revisions += len(a.Revisions)
		for _, r := range a.Revisions {
			if strings.HasPrefix(r.User, "Editor") && r.Comment == "Tagging dead link" {
				handTags++
			}
		}
	})
	botEdits := u.Bot.Stats().ArticlesEdited
	if revisions == 0 || botEdits == 0 || handTags == 0 {
		t.Fatalf("generation made %d revisions, %d bot edits, %d hand tags", revisions, botEdits, handTags)
	}
	if bound := int64(revisions + botEdits + handTags); parses > bound {
		t.Errorf("generation parsed revision text %d times; want at most %d (%d revisions + %d bot edits + %d hand tags)",
			parses, bound, revisions, botEdits, handTags)
	}
}

// TestCloneKeepsRevisionLinks: a clone of a generated wiki shares the
// digests generation kept, so mining every article of it reads no
// revision text; a revision edited into the clone afterwards is still
// digested, once, and the source never sees it.
func TestCloneKeepsRevisionLinks(t *testing.T) {
	p := worldgen.DefaultParams().Scale(0.05)
	p.Seed = 1
	src := worldgen.Generate(p).Wiki
	c := src.Clone()

	before := wikimedia.Parses()
	titles := c.Titles()
	for _, title := range titles {
		c.MineHistory(title)
	}
	if n := wikimedia.Parses() - before; n != 0 {
		t.Errorf("mining the %d articles of a clone read revision text %d times, want 0", len(titles), n)
	}

	const added = "http://clone-edit.simtest/after/clone.html"
	title := titles[0]
	cur := c.Article(title).Current()
	if _, err := c.Edit(title, cur.Day, "Editor", "cite", cur.Text+"\n* ["+added+" a source added to the clone]\n"); err != nil {
		t.Fatal(err)
	}
	before = wikimedia.Parses()
	if _, ok := c.MineHistory(title).Link(added); !ok {
		t.Errorf("the clone's history of %q lacks %s, cited by its edit", title, added)
	}
	if n := wikimedia.Parses() - before; n != 1 {
		t.Errorf("mining the edited article read revision text %d times, want 1 (the new revision)", n)
	}
	if _, ok := src.MineHistory(title).Link(added); ok {
		t.Errorf("the source's history of %q has %s, cited only in the clone", title, added)
	}
}
