// Audit-article: build a small hand-crafted world and article, then
// watch InternetArchiveBot maintain it over the years — patching the
// reference that has a usable archived copy and marking the one that
// does not as permanently dead, exactly as in the paper's Figure 1.
//
//	go run ./examples/audit-article
package main

import (
	"context"
	"fmt"
	"log"

	"permadead/internal/archive"
	"permadead/internal/fetch"
	"permadead/internal/iabot"
	"permadead/internal/simclock"
	"permadead/internal/simweb"
	"permadead/internal/wikimedia"
	"permadead/internal/worldgen"
)

func main() {
	// --- The web: two referenced pages, both of which will die. ---
	world := simweb.NewWorld()
	site := world.AddSite("www.mars-gazette.simnews", simclock.FromDate(2006, 1, 1))

	archived := site.AddPage("/science/express-mission.html", simclock.FromDate(2006, 3, 1))
	archived.DeletedAt = simclock.FromDate(2017, 6, 1)

	unarchived := site.AddPage("/science/orbiter-profile.html", simclock.FromDate(2006, 3, 1))
	unarchived.DeletedAt = simclock.FromDate(2017, 6, 1)

	// --- The archive: only the first page was ever captured. ---
	arch := archive.New()
	crawler := worldgen.NewCrawler(world, arch)
	if _, err := crawler.Capture("http://www.mars-gazette.simnews/science/express-mission.html",
		simclock.FromDate(2010, 5, 20)); err != nil {
		log.Fatal(err)
	}

	// --- The article, created in 2008 with both references. ---
	wiki := wikimedia.NewWiki()
	wiki.Create("Mars Express (simulated)", simclock.FromDate(2008, 2, 10), "SpaceEditor",
		`'''Mars Express''' is a simulated orbiter mission.

The mission was profiled in the Gazette.<ref>{{cite web|url=http://www.mars-gazette.simnews/science/express-mission.html|title=Express Mission|access-date=2008-02-10}}</ref>
A follow-up piece covered the orbiter.<ref>{{cite web|url=http://www.mars-gazette.simnews/science/orbiter-profile.html|title=Orbiter Profile|access-date=2008-02-10}}</ref>
`)

	// --- IABot scans in 2018, after both pages died. ---
	bot := iabot.New(wiki, arch, func(d simclock.Day) *fetch.Client {
		return fetch.New(simweb.NewTransport(world, d), fetch.WithMaxBody(0))
	})
	scanDay := simclock.FromDate(2018, 3, 1)
	edited, err := bot.ScanArticle(context.Background(), "Mars Express (simulated)", scanDay)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("IABot scan on %s (edited: %v)\n", scanDay, edited)
	st := bot.Stats()
	fmt.Printf("  checked %d links: %d broken, %d patched, %d marked permanently dead\n\n",
		st.LinksChecked, st.LinksBroken, st.Patched, st.MarkedDead)

	cur := wiki.Article("Mars Express (simulated)").Current()
	fmt.Println("article after the bot's edit:")
	fmt.Println("------------------------------")
	fmt.Println(cur.Text)

	// The study's view of each link, from the edit history.
	for _, url := range []string{
		"http://www.mars-gazette.simnews/science/express-mission.html",
		"http://www.mars-gazette.simnews/science/orbiter-profile.html",
	} {
		h, _ := wiki.HistoryOf("Mars Express (simulated)", url)
		fmt.Printf("history of %s:\n  added %s by %s", url, h.Added, h.AddedBy)
		if h.Patched {
			fmt.Printf("; patched with %s\n", h.ArchiveURL)
		} else if h.MarkedDead.Valid() {
			fmt.Printf("; marked permanently dead %s by %s\n", h.MarkedDead, h.MarkedDeadBy)
		} else {
			fmt.Println("; untouched")
		}
	}
}
