// Redirect-rescue: the paper's §4.2 idea end to end. Two archived
// redirections look identical to IABot — it conservatively ignores
// both — but cross-examining sibling URLs separates the valid per-page
// move from the erroneous mass redirect, and the valid one rescues a
// permanently dead link.
//
//	go run ./examples/redirect-rescue
package main

import (
	"fmt"

	"permadead/internal/archive"
	"permadead/internal/iabot"
	"permadead/internal/redircheck"
	"permadead/internal/simclock"
	"permadead/internal/waybackmedic"
	"permadead/internal/wikimedia"
)

func main() {
	arch := archive.New()
	capDay := simclock.FromDate(2014, 3, 1)

	// Case 1: main-spitze.de style — every old regional URL redirected
	// to its own new home. Unique targets.
	valid := "http://main-spitze.simnews/region/floersheim/9204093.htm"
	arch.Add(redirect(valid, capDay, "http://main-spitze.simnews/lokales/floersheim/index.htm"))
	arch.Add(redirect("http://main-spitze.simnews/region/floersheim/8811111.htm",
		capDay.Add(12), "http://main-spitze.simnews/lokales/floersheim/sport.htm"))
	arch.Add(redirect("http://main-spitze.simnews/region/hochheim/7700001.htm",
		capDay.Add(20), "http://main-spitze.simnews/lokales/hochheim/index.htm"))

	// Case 2: a news site that bounced every retired article to its
	// homepage. Shared target.
	mass := "http://daily-bugle.simnews/stories/2009/scandal.html"
	for i, p := range []string{"/stories/2009/scandal.html", "/stories/2009/merger.html", "/stories/2009/final.html"} {
		arch.Add(redirect("http://daily-bugle.simnews"+p, capDay.Add(i*7), "http://daily-bugle.simnews/"))
	}
	// The sibling check reads the CDX index, which Freeze builds once
	// every capture is in.
	arch.Freeze()

	checker := redircheck.NewChecker(arch)
	for _, url := range []string{valid, mass} {
		snap := arch.Snapshots(url)[0]
		v := checker.Check(url, snap)
		fmt.Printf("%s\n  archived redirect → %s\n", url, snap.RedirectTo)
		fmt.Printf("  siblings compared: %d, sharing the target: %d\n", v.SiblingsCompared, v.SharedWith)
		if v.NonErroneous {
			fmt.Println("  verdict: VALID — usable as an archived copy (§4.2)")
		} else {
			fmt.Println("  verdict: erroneous mass redirect — rightly ignored")
		}
		fmt.Println()
	}

	// Now the rescue: a wiki where IABot already marked both links
	// permanently dead, and a redirect-aware WaybackMedic pass.
	wiki := wikimedia.NewWiki()
	for i, url := range []string{valid, mass} {
		title := fmt.Sprintf("Article %d", i+1)
		wiki.Create(title, simclock.FromDate(2010, 1, 1), "Editor",
			`<ref>{{cite web|url=`+url+`|title=Ref}}</ref>`)
		wiki.Edit(title, simclock.FromDate(2018, 1, 1), iabot.DefaultName, "Tagging dead links",
			`<ref>{{cite web|url=`+url+`|title=Ref|url-status=dead}} {{dead link|date=January 2018|bot=InternetArchiveBot}}</ref>
[[Category:`+iabot.Category+`]]`)
	}

	medic := waybackmedic.New(wiki, arch)
	medic.AcceptRedirects = true
	medic.Checker = checker
	st := medic.Run(simclock.FromDate(2022, 5, 1))

	fmt.Printf("WaybackMedic with redirect rescue: %d examined, %d rescued via redirect, %d unfixable\n",
		st.DeadLinksSeen, st.RedirectPatched, st.Unfixable)
	fmt.Println("\nrescued citation now reads:")
	fmt.Println(" ", wiki.Article("Article 1").Current().Text)
}

func redirect(url string, day simclock.Day, target string) archive.Snapshot {
	return archive.Snapshot{
		URL: url, Day: day,
		InitialStatus: 301, FinalStatus: 200, RedirectTo: target,
	}
}
