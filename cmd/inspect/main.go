// Command inspect examines a saved universe ('worldgen -save'): verify
// the file end to end, list articles in the permanently-dead tracking
// category, print an article's wikitext and its links' edit-history
// facts, or trace one URL across all three substrates — the live web
// over time, the wiki, and the archive.
//
// Usage:
//
//	inspect -load u.pduniv              # full checksum + structure pass, then a summary
//	inspect -load u.pduniv -category
//	inspect -load u.pduniv -article "Some Title"
//	inspect -load u.pduniv -url http://host/path.html
//
// With a mode flag the file is mmap'd and read page-on-demand, so
// inspecting one article or URL touches only its pages. Without one,
// inspect first runs persist.VerifyPaged — serving skips checksums by
// design, so this is where a damaged file is caught — and exits
// non-zero naming the failing section.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"permadead/internal/iabot"
	"permadead/internal/persist"
	"permadead/internal/simclock"
	"permadead/internal/wikimedia"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("inspect: ")
	var (
		load     = flag.String("load", "", "universe file saved by 'worldgen -save' (required)")
		category = flag.Bool("category", false, "list articles in the permanently-dead tracking category")
		article  = flag.String("article", "", "print an article's wikitext and link histories")
		url      = flag.String("url", "", "trace one URL across the web, wiki, and archive")
	)
	flag.Parse()

	if *load == "" {
		log.Print("-load is required")
		flag.Usage()
		os.Exit(2)
	}
	b, err := persist.OpenPaged(*load)
	if err != nil {
		log.Fatal(err)
	}
	defer b.Close()

	switch {
	case *category:
		titles := b.Wiki.InCategory(iabot.Category)
		fmt.Printf("%d articles in [[Category:%s]]:\n", len(titles), iabot.Category)
		for _, t := range titles {
			fmt.Println(" ", t)
		}
	case *article != "":
		showArticle(b, *article)
	case *url != "":
		traceURL(b, *url)
	default:
		if err := persist.VerifyPaged(*load); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: verified (checksums and structure)\n", *load)
		fmt.Printf("universe: %d sites, %d articles, %d snapshots\n",
			b.World.Sites(), b.Wiki.Len(), b.Archive.TotalSnapshots())
		fmt.Println("use -category, -article, or -url to inspect")
	}
}

func showArticle(b *persist.Bundle, title string) {
	a := b.Wiki.Article(title)
	if a == nil {
		log.Fatalf("no article %q", title)
	}
	cur := a.Current()
	fmt.Printf("%s — %d revisions, last edited %s by %s\n\n",
		title, len(a.Revisions), cur.Day, cur.User)
	fmt.Println(cur.Text)
	fmt.Println("\nlink histories:")
	for _, u := range cur.Doc().ExternalURLs() {
		h, ok := b.Wiki.HistoryOf(title, u)
		if !ok {
			continue
		}
		fmt.Printf("  %s\n    added %s by %s", u, h.Added, h.AddedBy)
		if h.MarkedDead.Valid() {
			fmt.Printf("; marked dead %s by %s", h.MarkedDead, h.MarkedDeadBy)
		}
		if h.Patched {
			fmt.Printf("; patched with %s", h.ArchiveURL)
		}
		fmt.Println()
	}
}

func traceURL(b *persist.Bundle, url string) {
	fmt.Printf("trace: %s\n\n", url)

	// Live-web status over the years.
	fmt.Println("live web:")
	ctx := context.Background()
	for year := 2008; year <= 2022; year += 2 {
		day := simclock.FromDate(year, 3, 15)
		client := b.Client(day)
		res := client.Fetch(ctx, url)
		fmt.Printf("  %d: %-12s", year, res.Category)
		if res.FinalStatus != 0 {
			fmt.Printf(" (initial %d, final %d)", res.InitialStatus, res.FinalStatus)
		}
		fmt.Println()
	}

	// Archive captures.
	snaps := b.Archive.Snapshots(url)
	fmt.Printf("\narchive: %d captures\n", len(snaps))
	for _, s := range snaps {
		fmt.Printf("  %s  initial %d final %d", s.Day, s.InitialStatus, s.FinalStatus)
		if s.RedirectTo != "" {
			fmt.Printf("  → %s", s.RedirectTo)
		}
		fmt.Println()
	}
	fmt.Printf("archived 200-status neighbours: %d in directory, %d on hostname\n",
		b.Archive.CountInDirectory(url), b.Archive.CountOnHostname(url))

	// Wiki appearances.
	fmt.Println("\nwiki:")
	found := false
	b.Wiki.EachArticle(func(a *wikimedia.Article) {
		h, ok := b.Wiki.HistoryOf(a.Title, url)
		if !ok {
			return
		}
		found = true
		fmt.Printf("  cited in %q: added %s by %s", a.Title, h.Added, h.AddedBy)
		if h.MarkedDead.Valid() {
			fmt.Printf("; marked dead %s by %s (bot=%q)", h.MarkedDead, h.MarkedDeadBy, h.DeadLinkBot)
		}
		fmt.Println()
	})
	if !found {
		fmt.Println("  not cited in any article")
	}
}
