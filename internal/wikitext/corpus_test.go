package wikitext_test

import (
	"slices"
	"testing"

	"permadead/internal/wikimedia"
	"permadead/internal/wikitext"
	"permadead/internal/worldgen"
)

// TestDigestMatchesTreeOnCorpus holds the digest scan to the parse
// tree on every revision of generated Scale(0.1) universes, seeds 1–3:
// the articles the study reads, with the bots' and editors' tags and
// patches.
func TestDigestMatchesTreeOnCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("generates three universes")
	}
	for seed := int64(1); seed <= 3; seed++ {
		p := worldgen.DefaultParams().Scale(0.1)
		p.Seed = seed
		revisions, links := 0, 0
		worldgen.Generate(p).Wiki.EachArticle(func(a *wikimedia.Article) {
			for _, rev := range a.Revisions {
				wantCited, wantCats := wikitext.ReferenceDigest(rev.Text)
				cited, cats := wikitext.AppendDigest(nil, nil, rev.Text)
				if !slices.Equal(cited, wantCited) || !slices.Equal(cats, wantCats) {
					t.Fatalf("seed %d, %q revision %d: digest %+v %q, tree %+v %q",
						seed, a.Title, rev.ID, cited, cats, wantCited, wantCats)
				}
				revisions++
				links += len(cited)
			}
		})
		if revisions == 0 || links == 0 {
			t.Fatalf("seed %d: %d revisions citing %d links", seed, revisions, links)
		}
	}
}
