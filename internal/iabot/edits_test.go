package iabot

import (
	"context"
	"testing"

	"permadead/internal/archive"
)

// TestScanEditsSeveralLinksGolden pins the bytes of the several-links
// scan TestScanEditsSeveralLinksOfOneContainer compares with the
// in-place scan: three links tagged, two patched, each tag and archive
// link right after its own link, in the body and in one <ref>, and the
// category appended last.
func TestScanEditsSeveralLinksGolden(t *testing.T) {
	const text = "See http://gone.simtest/a and [http://gone.simtest/b B], " +
		"{{cite web|url=http://gone.simtest/c|title=C}} and http://ok.simtest/d.\n" +
		"<ref>http://gone.simtest/e [http://gone.simtest/f F]</ref>"
	const want = "See http://gone.simtest/a {{Dead link|date=March 2018|bot=InternetArchiveBot|fix-attempted=yes}} and " +
		"[http://gone.simtest/b B] {{Webarchive|url=https://web.archive.org/web/20110101000000/http://gone.simtest/b|date=2011-01-01}}, " +
		"{{cite web|url=http://gone.simtest/c|title=C|url-status=dead}} {{Dead link|date=March 2018|bot=InternetArchiveBot|fix-attempted=yes}} and http://ok.simtest/d.\n" +
		"<ref>http://gone.simtest/e {{Webarchive|url=https://web.archive.org/web/20110101000000/http://gone.simtest/e|date=2011-01-01}} " +
		"[http://gone.simtest/f F] {{Dead link|date=March 2018|bot=InternetArchiveBot|fix-attempted=yes}}</ref>\n" +
		"[[Category:Articles with permanently dead external links]]"
	f := newFixture()
	gone := f.world.AddSite("gone.simtest", d(2008, 1, 1))
	for _, p := range []string{"/a", "/b", "/c", "/e", "/f"} {
		gone.AddPage(p, d(2008, 1, 1)).DeletedAt = d(2016, 1, 1)
	}
	f.world.AddSite("ok.simtest", d(2008, 1, 1)).AddPage("/d", d(2008, 1, 1))
	for _, u := range []string{"http://gone.simtest/b", "http://gone.simtest/e"} {
		f.arch.Add(archive.Snapshot{URL: u, Day: d(2011, 1, 1), InitialStatus: 200, FinalStatus: 200})
	}
	f.wiki.Create("Art", d(2010, 5, 1), "User", text)
	if _, err := f.bot.ScanArticle(context.Background(), "Art", d(2018, 3, 1)); err != nil {
		t.Fatal(err)
	}
	if got := f.wiki.Article("Art").Current().Text; got != want {
		t.Errorf("scan wrote\n%q\nwant\n%q", got, want)
	}
	if st := f.bot.Stats(); st.Patched != 2 || st.MarkedDead != 3 || st.ArticlesEdited != 1 {
		t.Errorf("stats %+v, want 2 patched, 3 marked dead, 1 article edited", st)
	}
}

// TestScanLinkKeepsUneditedBytes: the monitor's repair of one link in
// an article an editor wrote by hand, spaced as no renderer would space
// it, changes only the link's own markup and appends the category;
// every other byte stays as the editor left it.
func TestScanLinkKeepsUneditedBytes(t *testing.T) {
	const (
		cite = "{{ cite web | url = http://gone.simtest/c | title = C }}"
		ext  = "[http://gone.simtest/a  A ]"
		text = "Intro " + cite + " beside " + ext + " and more.\n"
		tag  = " {{Dead link|date=March 2018|bot=InternetArchiveBot|fix-attempted=yes}}"
		cat  = "\n[[Category:Articles with permanently dead external links]]"
	)
	for _, tc := range []struct{ url, want string }{
		{"http://gone.simtest/a", "Intro " + cite + " beside " + ext + tag + " and more.\n" + cat},
		{"http://gone.simtest/c", "Intro {{cite web|url= http://gone.simtest/c |title= C |url-status=dead}}" + tag + " beside " + ext + " and more.\n" + cat},
	} {
		f := newFixture()
		gone := f.world.AddSite("gone.simtest", d(2008, 1, 1))
		gone.AddPage("/a", d(2008, 1, 1)).DeletedAt = d(2016, 1, 1)
		gone.AddPage("/c", d(2008, 1, 1)).DeletedAt = d(2016, 1, 1)
		f.wiki.Create("Art", d(2010, 5, 1), "Editor", text)
		edited, err := f.bot.ScanLink(context.Background(), "Art", tc.url, d(2018, 3, 1))
		if err != nil || !edited {
			t.Fatalf("ScanLink(%s) edited %v, err %v", tc.url, edited, err)
		}
		if got := f.wiki.Article("Art").Current().Text; got != tc.want {
			t.Errorf("ScanLink(%s) wrote\n%q\nwant\n%q", tc.url, got, tc.want)
		}
	}
}
