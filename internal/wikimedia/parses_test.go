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
