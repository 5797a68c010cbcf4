package archive_test

import (
	"fmt"
	"time"

	"permadead/internal/archive"
	"permadead/internal/simclock"
)

func ExampleArchive_Query() {
	a := archive.New()
	a.Add(archive.Snapshot{
		URL: "http://news.example/story.html",
		Day: simclock.FromDate(2014, 6, 1), InitialStatus: 200, FinalStatus: 200,
	})

	// IABot's lookup: the usable copy closest to the link-add date,
	// within a timeout.
	snap, ok, err := a.Query(archive.AvailabilityQuery{
		URL:     "http://news.example/story.html",
		Want:    simclock.FromDate(2013, 1, 1),
		Accept:  archive.AcceptUsable,
		Timeout: 2 * time.Second,
	})
	fmt.Println(ok, err, snap.Day)
	// Output: true <nil> 2014-06-01
}

func ExampleArchive_Query_timeout() {
	// §4.1: a slow availability lookup under IABot's timeout is
	// indistinguishable from "never archived".
	a := archive.New()
	url := "http://slow.example/p.html"
	a.Add(archive.Snapshot{URL: url, Day: simclock.FromDate(2011, 1, 1), InitialStatus: 200})
	a.SetLookupLatency(url, 30*time.Second)

	_, ok, err := a.Query(archive.AvailabilityQuery{
		URL: url, Want: simclock.FromDate(2010, 1, 1),
		Accept: archive.AcceptUsable, Timeout: 2 * time.Second,
	})
	fmt.Println(ok, err == archive.ErrAvailabilityTimeout)
	// Output: false true
}

func ExampleArchive_CountInDirectory() {
	// §5.2: how well archived is the neighbourhood of a dead URL?
	a := archive.New()
	a.AddBulkCoverage(archive.BulkRegion{
		Host: "paper.example", DirPrefix: "/stories/", Count: 12000,
		FirstDay: simclock.FromDate(2010, 1, 1), LastDay: simclock.FromDate(2020, 1, 1),
	})
	a.Freeze() // CDX reads answer from the frozen index
	fmt.Println(a.CountInDirectory("http://paper.example/stories/lost.html"))
	fmt.Println(a.CountInDirectory("http://paper.example/forum/lost.html"))
	// Output:
	// 12000
	// 0
}

func ExampleSnapshot_WaybackURL() {
	s := archive.Snapshot{
		URL: "http://news.example/story.html",
		Day: simclock.FromDate(2014, 6, 1),
	}
	fmt.Println(s.WaybackURL())
	// Output: https://web.archive.org/web/20140601000000/http://news.example/story.html
}
