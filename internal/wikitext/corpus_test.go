package wikitext_test

import (
	"fmt"
	"slices"
	"testing"

	"permadead/internal/iabot"
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

// TestSpliceMatchesTreeOnCorpus holds Apply to the reference tree's
// edits on every revision of the same universes: each op on each link
// alone, each op on all of a revision's links at once with the
// category added, and the category removed.
func TestSpliceMatchesTreeOnCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("generates three universes")
	}
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			t.Parallel()
			p := worldgen.DefaultParams().Scale(0.1)
			p.Seed = seed
			edits := 0
			check := func(a *wikimedia.Article, rev wikimedia.Revision, e []wikitext.Edit) {
				if got, want := wikitext.Apply(rev.Text, e), wikitext.ReferenceApply(rev.Text, e); got != want {
					t.Fatalf("%q revision %d, edits %+v: splice\n%q\ntree\n%q", a.Title, rev.ID, e, got, want)
				}
				edits += len(e)
			}
			worldgen.Generate(p).Wiki.EachArticle(func(a *wikimedia.Article) {
				for _, rev := range a.Revisions {
					n := len(wikitext.AppendCited(nil, rev.Text))
					for _, op := range []wikitext.Edit{
						{Op: wikitext.MarkDead, Date: "March 2018", Bot: iabot.DefaultName},
						{Op: wikitext.Patch, ArchiveURL: "https://web.archive.org/web/20110101000000/http://h.simtest/a", Date: "2011-01-01"},
						{Op: wikitext.Untag},
					} {
						all := []wikitext.Edit{{Op: wikitext.AddCategory, Category: iabot.Category}}
						for i := 0; i < n; i++ {
							op.Link = i
							check(a, rev, []wikitext.Edit{op})
							all = append(all, op)
						}
						check(a, rev, all)
					}
					check(a, rev, []wikitext.Edit{{Op: wikitext.RemoveCategory, Category: iabot.Category}})
				}
			})
			if edits == 0 {
				t.Fatal("no edits made")
			}
		})
	}
}
