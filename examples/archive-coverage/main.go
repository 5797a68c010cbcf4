// Archive-coverage: the paper's §5.2 spatial analysis on one host.
// Builds an archive with uneven coverage of a news site, then asks —
// for a never-archived URL — whether the coverage gap is page-
// specific, directory-wide, or host-wide, and whether the URL looks
// like a typo of an archived sibling.
//
//	go run ./examples/archive-coverage
package main

import (
	"fmt"

	"permadead/internal/archive"
	"permadead/internal/simclock"
	"permadead/internal/urlutil"
)

func main() {
	arch := archive.New()
	day := simclock.FromDate(2014, 6, 1)

	// The sports section is richly archived (a bulk region stands in
	// for thousands of individually captured articles)...
	arch.AddBulkCoverage(archive.BulkRegion{
		Host:      "www.lnr-gazette.simnews",
		DirPrefix: "/rugby/",
		Count:     12000,
		FirstDay:  simclock.FromDate(2008, 1, 1),
		LastDay:   simclock.FromDate(2021, 1, 1),
		Seed:      7,
	})
	// ...and a few specific pages were captured explicitly.
	for i, path := range []string{
		"/rugby/top-14-histoire-26-mai-1984.html",
		"/rugby/top-14-histoire-27-mai-1990.html",
		"/about/contact.html",
	} {
		arch.Add(archive.Snapshot{
			URL:           "http://www.lnr-gazette.simnews" + path,
			Day:           day.Add(i * 30),
			InitialStatus: 200,
			FinalStatus:   200,
		})
	}
	// The coverage and typo queries read the CDX index, which Freeze
	// builds once every capture is in.
	arch.Freeze()

	// The permanently dead link — note the English "may" where the
	// French site spells "mai" (the paper's lnr.fr example).
	dead := "http://www.lnr-gazette.simnews/rugby/top-14-histoire-26-may-1984.html"

	fmt.Println("never-archived URL:", dead)
	fmt.Printf("  200-status copies in same directory: %d\n", arch.CountInDirectory(dead))
	fmt.Printf("  200-status copies on same hostname:  %d\n", arch.CountOnHostname(dead))

	// §5.2's typo probe: exactly one archived URL at edit distance 1?
	domain := urlutil.Domain(dead)
	matches := []string{}
	self := strip(dead)
	cands, _ := arch.DomainURLs(domain, 20000)
	for _, cand := range cands {
		sc := strip(cand)
		if sc == self {
			continue // distance 0: an http/https variant, not a typo
		}
		// Distance <= 1 and != 0 is exactly 1: one bounded call.
		if urlutil.EditDistanceAtMost(sc, self, 1) {
			matches = append(matches, cand)
		}
	}
	switch len(matches) {
	case 0:
		fmt.Println("  no edit-distance-1 archived sibling: not a typo")
	case 1:
		fmt.Println("  unique edit-distance-1 archived sibling found:")
		fmt.Println("    ", matches[0])
		fmt.Println("  → the dead link is almost certainly a typo of it (§5.2)")
	default:
		fmt.Printf("  %d edit-distance-1 siblings: ambiguous (likely a numeric page id)\n", len(matches))
	}

	// Contrast with a host-wide coverage gap.
	ghost := "http://forgotten.simtest/articles/story.html"
	fmt.Println("\nnever-archived URL on an unarchived host:", ghost)
	fmt.Printf("  directory-level copies: %d, hostname-level copies: %d\n",
		arch.CountInDirectory(ghost), arch.CountOnHostname(ghost))
	fmt.Println("  → the whole site was never archived; nothing to patch with")
}

func strip(url string) string {
	if i := len("http://"); len(url) > i && url[:i] == "http://" {
		return url[i:]
	}
	if i := len("https://"); len(url) > i && url[:i] == "https://" {
		return url[i:]
	}
	return url
}
