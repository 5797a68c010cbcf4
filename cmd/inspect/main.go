// Command inspect examines a saved universe ('worldgen -save'): verify
// the file end to end, or trace one URL across all three substrates —
// the live web over time, the wiki, and the archive.
//
// Usage:
//
//	inspect -load u.pduniv              # full checksum + structure pass, then a summary
//	inspect -load u.pduniv -url http://host/path.html
//
// With -url the file is mmap'd and read page-on-demand, so tracing one
// URL touches only its pages. Without it, inspect runs
// persist.VerifyPaged — serving skips checksums by design, so this is
// where a damaged file is caught — and exits non-zero naming the
// failing section.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"permadead/internal/persist"
	"permadead/internal/simclock"
	"permadead/internal/wikimedia"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("inspect: ")
	var (
		load = flag.String("load", "", "universe file saved by 'worldgen -save' (required)")
		url  = flag.String("url", "", "trace one URL across the web, wiki, and archive")
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

	if *url != "" {
		traceURL(b, *url)
		return
	}
	if err := persist.VerifyPaged(*load); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: verified (checksums and structure)\n", *load)
	fmt.Printf("universe: %d sites, %d articles, %d snapshots\n",
		b.World.Sites(), b.Wiki.Len(), b.Archive.TotalSnapshots())
	fmt.Println("use -url to trace one link")
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
