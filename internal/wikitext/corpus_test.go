package wikitext_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"permadead/internal/iabot"
	"permadead/internal/wikimedia"
	"permadead/internal/wikitext"
	"permadead/internal/worldgen"
)

// corpusRevision is one revision of a generated article.
type corpusRevision struct {
	title string
	rev   wikimedia.Revision
}

// corpus is every revision of the generated Scale(0.1) universes,
// seeds 1–3 (index seed−1): the articles the study reads, with the
// bots' and editors' tags and patches. The three universes are
// generated once, side by side, for every test that reads them.
var corpus = sync.OnceValue(func() (revisions [3][]corpusRevision) {
	var wg sync.WaitGroup
	for i := range revisions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := worldgen.DefaultParams().Scale(0.1)
			p.Seed = int64(i + 1)
			worldgen.Generate(p).Wiki.EachArticle(func(a *wikimedia.Article) {
				for _, rev := range a.Revisions {
					revisions[i] = append(revisions[i], corpusRevision{a.Title, rev})
				}
			})
		}()
	}
	wg.Wait()
	return revisions
})

// TestDigestMatchesTreeOnCorpus holds the digest scan to the parse
// tree on every revision of the corpus.
func TestDigestMatchesTreeOnCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("generates three universes")
	}
	for i, revs := range corpus() {
		seed := i + 1
		links := 0
		for _, r := range revs {
			wantCited, wantCats := wikitext.ReferenceDigest(r.rev.Text)
			cited, cats := wikitext.AppendDigest(nil, nil, r.rev.Text)
			if !slices.Equal(cited, wantCited) || !slices.Equal(cats, wantCats) {
				t.Fatalf("seed %d, %q revision %d: digest %+v %q, tree %+v %q",
					seed, r.title, r.rev.ID, cited, cats, wantCited, wantCats)
			}
			links += len(cited)
		}
		if len(revs) == 0 || links == 0 {
			t.Fatalf("seed %d: %d revisions citing %d links", seed, len(revs), links)
		}
	}
}

// TestSpliceMatchesTreeOnCorpus holds Apply to the reference tree's
// edits on every revision of the corpus: each op on each link
// alone, each op on all of a revision's links at once with the
// category added, and the category removed.
func TestSpliceMatchesTreeOnCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("generates three universes")
	}
	for i, revs := range corpus() {
		t.Run(fmt.Sprint("seed", i+1), func(t *testing.T) {
			t.Parallel()
			edits := 0
			check := func(r corpusRevision, e []wikitext.Edit) {
				if got, want := wikitext.Apply(r.rev.Text, e), wikitext.ReferenceApply(r.rev.Text, e); got != want {
					t.Fatalf("%q revision %d, edits %+v: splice\n%q\ntree\n%q", r.title, r.rev.ID, e, got, want)
				}
				edits += len(e)
			}
			for _, r := range revs {
				n := len(wikitext.AppendCited(nil, r.rev.Text))
				for _, op := range []wikitext.Edit{
					{Op: wikitext.MarkDead, Date: "March 2018", Bot: iabot.DefaultName},
					{Op: wikitext.Patch, ArchiveURL: "https://web.archive.org/web/20110101000000/http://h.simtest/a", Date: "2011-01-01"},
					{Op: wikitext.Untag},
				} {
					all := []wikitext.Edit{{Op: wikitext.AddCategory, Category: iabot.Category}}
					for i := 0; i < n; i++ {
						op.Link = i
						check(r, []wikitext.Edit{op})
						all = append(all, op)
					}
					check(r, all)
				}
				check(r, []wikitext.Edit{{Op: wikitext.RemoveCategory, Category: iabot.Category}})
			}
			if edits == 0 {
				t.Fatal("no edits made")
			}
		})
	}
}
