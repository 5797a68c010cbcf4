package persist

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"permadead/internal/core"
	"permadead/internal/fetch"
	"permadead/internal/simweb"
	"permadead/internal/worldgen"
)

// saveOpen round-trips u through SavePaged to a file and OpenPaged.
func saveOpen(t *testing.T, u *worldgen.Universe) *Bundle {
	t.Helper()
	b, err := OpenPaged(savePagedFile(t, u))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return b
}

func TestSaveLoadRoundTrip(t *testing.T) {
	u := worldgen.Generate(worldgen.SmallParams().Scale(0.5))
	b := saveOpen(t, u)

	// Structure survives.
	if b.World.Sites() != u.World.Sites() {
		t.Errorf("sites: %d vs %d", b.World.Sites(), u.World.Sites())
	}
	if b.Wiki.Len() != u.Wiki.Len() {
		t.Errorf("articles: %d vs %d", b.Wiki.Len(), u.Wiki.Len())
	}
	if b.Archive.TotalSnapshots() != u.Archive.TotalSnapshots() {
		t.Errorf("snapshots: %d vs %d", b.Archive.TotalSnapshots(), u.Archive.TotalSnapshots())
	}
	if b.Params.SampleSize != u.Params.SampleSize {
		t.Errorf("params: %d vs %d", b.Params.SampleSize, u.Params.SampleSize)
	}
}

func TestLoadedUniverseMeasuresIdentically(t *testing.T) {
	u := worldgen.Generate(worldgen.SmallParams().Scale(0.5))
	b := saveOpen(t, u)

	mk := func(bundleWiki *Bundle, orig bool) *core.Report {
		cfg := core.DefaultConfig()
		cfg.SampleSize = 0
		cfg.CrawlArticles = 0
		var s *core.Study
		if orig {
			s = &core.Study{Config: cfg, Wiki: u.Wiki, Arch: u.Archive,
				Client: fetch.New(simweb.NewTransport(u.World, cfg.StudyTime)), Ranks: u.World}
		} else {
			s = &core.Study{Config: cfg, Wiki: bundleWiki.Wiki, Arch: bundleWiki.Archive,
				Client: fetch.New(simweb.NewTransport(bundleWiki.World, cfg.StudyTime)), Ranks: bundleWiki.World}
		}
		r, err := s.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	ra := mk(nil, true)
	rb := mk(b, false)

	if ra.N() != rb.N() {
		t.Fatalf("sample sizes differ: %d vs %d", ra.N(), rb.N())
	}
	for _, cat := range ra.LiveBreakdown.Categories() {
		if ra.LiveBreakdown.Count(cat) != rb.LiveBreakdown.Count(cat) {
			t.Errorf("category %q: %d vs %d", cat,
				ra.LiveBreakdown.Count(cat), rb.LiveBreakdown.Count(cat))
		}
	}
	if len(ra.Pre200) != len(rb.Pre200) ||
		len(ra.ValidRedirCopies) != len(rb.ValidRedirCopies) ||
		len(ra.NoCopies) != len(rb.NoCopies) ||
		ra.Typos != rb.Typos {
		t.Errorf("archive analyses differ: pre200 %d/%d valid %d/%d none %d/%d typos %d/%d",
			len(ra.Pre200), len(rb.Pre200),
			len(ra.ValidRedirCopies), len(rb.ValidRedirCopies),
			len(ra.NoCopies), len(rb.NoCopies), ra.Typos, rb.Typos)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := openPagedBytes([]byte("not a paged universe stream"), nil); err == nil {
		t.Error("garbage should fail to load")
	}
	if _, err := openPagedBytes(nil, nil); err == nil {
		t.Error("empty stream should fail to load")
	}
}

// TestLoadReportsFoundVersion checks a version-mismatched stream fails
// with an error naming the version actually found and the one this
// build reads, not an opaque decode failure.
func TestLoadReportsFoundVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := SavePaged(&buf, FromUniverse(worldgen.Generate(worldgen.SmallParams().Scale(0.2)))); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	le.PutUint32(data[4:], 99)
	_, err := openPagedBytes(data, nil)
	if err == nil {
		t.Fatal("version-99 stream loaded without error")
	}
	if !strings.Contains(err.Error(), "version 99 found") || !strings.Contains(err.Error(), "version 4") {
		t.Errorf("error does not name both versions: %v", err)
	}
}

func TestFaultWindowsRoundTrip(t *testing.T) {
	p := worldgen.SmallParams()
	p.FlakySiteFrac = 0.5
	p.FlakyRate = 0.7
	p.FlakyRetryAfterSec = 33
	u := worldgen.Generate(p)

	count := func(w *simweb.World) (sites, windows int) {
		for _, h := range w.Hostnames() {
			if s := w.Site(h); len(s.Faults) > 0 {
				sites++
				windows += len(s.Faults)
			}
		}
		return
	}
	origSites, origWindows := count(u.World)
	if origSites == 0 {
		t.Fatal("generation planted no fault windows")
	}

	b := saveOpen(t, u)
	gotSites, gotWindows := count(b.World)
	if gotSites != origSites || gotWindows != origWindows {
		t.Fatalf("faults: %d sites/%d windows vs %d/%d", gotSites, gotWindows, origSites, origWindows)
	}

	// Window contents survive exactly — fault schedules are seed-pure,
	// so any field drift would change measured outcomes.
	for _, host := range u.World.Hostnames() {
		a, z := u.World.Site(host), b.World.Site(host)
		if len(a.Faults) != len(z.Faults) {
			t.Fatalf("%s: %d vs %d windows", host, len(a.Faults), len(z.Faults))
		}
		for i := range a.Faults {
			if a.Faults[i] != z.Faults[i] {
				t.Fatalf("%s window %d: %+v vs %+v", host, i, a.Faults[i], z.Faults[i])
			}
		}
	}
	if b.Params.FlakySiteFrac != p.FlakySiteFrac || b.Params.FlakyRate != p.FlakyRate {
		t.Errorf("flaky params lost: %+v", b.Params)
	}
}
