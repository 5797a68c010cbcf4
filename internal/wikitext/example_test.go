package wikitext_test

import (
	"fmt"

	"permadead/internal/wikitext"
)

func ExampleApply() {
	// InternetArchiveBot's edit: the first citation has no usable copy
	// and is tagged permanently dead; the second gets an archived copy.
	text := `Claim.<ref>{{cite web|url=http://gone.example/p|title=T}}</ref> Another.<ref>[http://gone.example/q Q]</ref>`
	for i, c := range wikitext.AppendCited(nil, text) {
		fmt.Println(i, c.URL)
	}
	fmt.Println(wikitext.Apply(text, []wikitext.Edit{
		{Op: wikitext.MarkDead, Link: 0, Date: "March 2022", Bot: "InternetArchiveBot"},
		{Op: wikitext.Patch, Link: 1, ArchiveURL: "https://web.archive.org/web/20150101000000/http://gone.example/q", Date: "2015-01-01"},
		{Op: wikitext.AddCategory, Category: "Articles with permanently dead external links"},
	}))
	// Output:
	// 0 http://gone.example/p
	// 1 http://gone.example/q
	// Claim.<ref>{{cite web|url=http://gone.example/p|title=T|url-status=dead}} {{Dead link|date=March 2022|bot=InternetArchiveBot|fix-attempted=yes}}</ref> Another.<ref>[http://gone.example/q Q] {{Webarchive|url=https://web.archive.org/web/20150101000000/http://gone.example/q|date=2015-01-01}}</ref>
	// [[Category:Articles with permanently dead external links]]
}

func ExampleParse() {
	doc := wikitext.Parse(`Claim.<ref>{{cite web|url=http://example.org/a|title=Source}}</ref>`)
	for _, url := range doc.ExternalURLs() {
		fmt.Println(url)
	}
	// Output: http://example.org/a
}

func ExampleCitedLink_MarkDead() {
	// InternetArchiveBot's edit: tag a broken citation permanently dead.
	doc := wikitext.Parse(`<ref>{{cite web|url=http://gone.example/p|title=T}}</ref>`)
	link := doc.CitedLinks()[0]
	link.MarkDead("March 2022", "InternetArchiveBot")
	fmt.Println(doc.Render())
	// Output: <ref>{{cite web|url=http://gone.example/p|title=T|url-status=dead}} {{Dead link|date=March 2022|bot=InternetArchiveBot|fix-attempted=yes}}</ref>
}

func ExampleCitedLink_PatchWithArchive() {
	// The rescue edit: augment a citation with an archived copy.
	doc := wikitext.Parse(`<ref>[http://gone.example/p Title]</ref>`)
	link := doc.CitedLinks()[0]
	link.PatchWithArchive("https://web.archive.org/web/20150101000000/http://gone.example/p", "2015-01-01")
	fmt.Println(doc.Render())
	// Output: <ref>[http://gone.example/p Title] {{Webarchive|url=https://web.archive.org/web/20150101000000/http://gone.example/p|date=2015-01-01}}</ref>
}

func ExampleDocument_Categories() {
	doc := wikitext.Parse(`Text. [[Category:Articles with permanently dead external links]]`)
	fmt.Println(doc.Categories())
	// Output: [Articles with permanently dead external links]
}
