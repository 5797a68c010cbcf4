package persist

import (
	"bytes"
	"fmt"
	"hash/crc64"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"permadead/internal/archive"
	"permadead/internal/simclock"
	"permadead/internal/simweb"
	"permadead/internal/urlutil"
	"permadead/internal/wikimedia"
	"permadead/internal/worldgen"
)

// cdxWorld adds one randomized capture history to every archive in as:
// hosts sharing registrable domains, directories, paths repeated on
// different days, five initial statuses, query strings in permuted
// orders, and bulk regions. It returns the hosts and paths it used.
func cdxWorld(rng *rand.Rand, as ...*archive.Archive) (hosts, paths []string) {
	for d := 0; d < 2+rng.Intn(4); d++ {
		domain := fmt.Sprintf("dom%d.simtest", d)
		for _, sub := range []string{"", "www.", "news.", "blog."}[:1+rng.Intn(4)] {
			hosts = append(hosts, sub+domain)
		}
	}
	dirs := []string{"/", "/a/", "/a/b/", "/ab/", "/news/2014/", "/x/"}
	leaves := []string{"p.html", "q.html", "r", "item?b=2&a=1", "item?a=1&b=2", "item?a=1&c=3", ""}
	statuses := []int{200, 200, 200, 404, 301, 302, 503}
	for i := 0; i < 50+rng.Intn(150); i++ {
		host := hosts[rng.Intn(len(hosts))]
		path := dirs[rng.Intn(len(dirs))] + leaves[rng.Intn(len(leaves))]
		paths = append(paths, path)
		s := archive.Snapshot{
			URL:           "http://" + host + path,
			Day:           simclock.Day(rng.Intn(5000)),
			InitialStatus: statuses[rng.Intn(len(statuses))],
			FinalStatus:   200,
		}
		for _, a := range as {
			a.Add(s)
		}
	}
	for i := 0; i < 1+rng.Intn(4); i++ {
		r := archive.BulkRegion{
			Host:      hosts[rng.Intn(len(hosts))],
			DirPrefix: dirs[rng.Intn(len(dirs))],
			Count:     1 + rng.Intn(500),
			FirstDay:  100, LastDay: 4000,
			Seed: rng.Uint64(),
		}
		for _, a := range as {
			a.AddBulkCoverage(r)
		}
	}
	return hosts, paths
}

// Record sizes of the archive's snapkeys and latency sections, which
// the damage tests step by.
const (
	snapKeyRecSize = 16
	latencyRecSize = 16
)

// savedArchive saves a as a paged file's bytes, with an empty world
// and wiki.
func savedArchive(t testing.TB, a *archive.Archive) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := SavePaged(&buf, &Bundle{World: simweb.NewWorld(), Wiki: wikimedia.NewWiki(), Archive: a}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFindQueryPermutationProbes holds the §5.2 rescue probe's five
// cases — a rescuable permutation, the identical URL, different values,
// a query-less URL and an unknown host — to the same answers on every
// backing: the mutable archive's scan, the frozen in-memory index and
// the paged file.
func TestFindQueryPermutationProbes(t *testing.T) {
	fill := func(a *archive.Archive) *archive.Archive {
		for _, u := range []string{"http://q.simtest/view.asp?b=2&a=1", "http://q.simtest/plain.html"} {
			a.Add(archive.Snapshot{URL: u, Day: 100, InitialStatus: 200, FinalStatus: 200})
		}
		return a
	}
	frozen := fill(archive.New())
	frozen.Freeze()
	b, err := openPagedBytes(savedArchive(t, fill(archive.New())), nil)
	if err != nil {
		t.Fatal(err)
	}
	probes := []struct{ url, want string }{
		{"http://q.simtest/view.asp?a=1&b=2", "http://q.simtest/view.asp?b=2&a=1"}, // rescuable
		{"http://q.simtest/view.asp?b=2&a=1", ""},                                  // identical URL: no rescue
		{"http://q.simtest/view.asp?a=9&b=2", ""},                                  // different values
		{"http://q.simtest/plain.html", ""},                                        // query-less: skipped
		{"http://none.simtest/x?a=1&b=2", ""},                                      // unknown host
	}
	for name, a := range map[string]*archive.Archive{"mutable": fill(archive.New()), "frozen": frozen, "paged": b.Archive} {
		for _, p := range probes {
			got, ok := a.FindQueryPermutation(p.url)
			if got != p.want || ok != (p.want != "") {
				t.Errorf("%s FindQueryPermutation(%s) = %q/%v, want %q/%v", name, p.url, got, ok, p.want, p.want != "")
			}
		}
	}
}

// TestPagedIndexMatchesNaiveScan is the paged backing's differential:
// randomized worlds, saved and reopened, must answer every CDX query
// kind exactly as the mutable archive's linear scan does — the scan
// the in-memory index is held to in internal/archive.
func TestPagedIndexMatchesNaiveScan(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			naive, saved := archive.New(), archive.New()
			hosts, paths := cdxWorld(rng, naive, saved)
			b, err := openPagedBytes(savedArchive(t, saved), nil)
			if err != nil {
				t.Fatal(err)
			}
			pa := b.Archive

			for i := 0; i < 200; i++ {
				q := archive.CDXQuery{Host: hosts[rng.Intn(len(hosts))]}
				switch rng.Intn(4) {
				case 1:
					q.PathPrefix = []string{"/", "/a", "/a/", "/a/b/", "/news/2014/", "/missing/"}[rng.Intn(6)]
				case 2:
					q.PathPrefix = paths[rng.Intn(len(paths))]
				case 3: // a prefix cut mid-segment
					p := paths[rng.Intn(len(paths))]
					q.PathPrefix = p[:1+rng.Intn(len(p))]
				}
				q.Status = []int{0, 0, 200, 404, 301, 302, 503, 418}[rng.Intn(8)]
				if rng.Intn(3) == 0 {
					q.Limit = 1 + rng.Intn(40)
				}
				if got, want := pa.CDXCount(q), naive.CDXCount(q); got != want {
					t.Errorf("CDXCount(%+v) = %d, want %d", q, got, want)
				}
				if got, want := pa.CDXList(q), naive.CDXList(q); !reflect.DeepEqual(got, want) {
					t.Errorf("CDXList(%+v):\n got %v\nwant %v", q, got, want)
				}
			}
			for i := 0; i < 100; i++ {
				url := "http://" + hosts[rng.Intn(len(hosts))] + paths[rng.Intn(len(paths))]
				if got, want := pa.CountInDirectory(url), naive.CountInDirectory(url); got != want {
					t.Errorf("CountInDirectory(%s) = %d, want %d", url, got, want)
				}
				if got, want := pa.CountOnHostname(url), naive.CountOnHostname(url); got != want {
					t.Errorf("CountOnHostname(%s) = %d, want %d", url, got, want)
				}
				probe := "http://" + hosts[rng.Intn(len(hosts))] + []string{
					"/a/item?a=1&b=2", "/a/item?b=2&a=1", "/x/item?c=3&a=1", "/news/2014/item?a=1&c=3", "/a/b/p.html",
				}[rng.Intn(5)]
				gu, gok := pa.FindQueryPermutation(probe)
				wu, wok := naive.FindQueryPermutation(probe)
				if gu != wu || gok != wok {
					t.Errorf("FindQueryPermutation(%s) = %q/%v, want %q/%v", probe, gu, gok, wu, wok)
				}
			}
			for _, h := range append(hosts, "none.simtest") {
				d := urlutil.DomainOfHost(h)
				limit := 1 + rng.Intn(80)
				gu, gt := pa.DomainURLs(d, limit)
				wu, wt := naive.DomainURLs(d, limit)
				if gt != wt || !reflect.DeepEqual(gu, wu) {
					t.Errorf("DomainURLs(%s, %d) = %v/%v, want %v/%v", d, limit, gu, gt, wu, wt)
				}
			}
		})
	}
}

// sectionAt returns the file bytes of one section (aliasing data).
func sectionAt(data []byte, kind int) []byte {
	base := superblockSize + kind*dirEntrySize
	off, length := rdU64(data, base+8), rdU64(data, base+16)
	return data[off : off+length]
}

// rechecksum rewrites one section's directory CRC after an edit.
func rechecksum(data []byte, kind int) {
	le.PutUint64(data[superblockSize+kind*dirEntrySize+24:], crc64.Checksum(sectionAt(data, kind), crcTable))
}

// exerciseCDX runs every CDX query kind on hosts, on prefixes and URLs
// taken from their rows, and on their domains. It checks nothing: on a
// damaged file the answers may be wrong, but each call must return.
func exerciseCDX(a *archive.Archive, hosts []string) {
	for _, h := range hosts {
		urls := []string{"http://" + h + "/a/item?a=1&b=2"}
		for _, e := range a.CDXList(archive.CDXQuery{Host: h, Limit: 4}) {
			urls = append(urls, e.URL)
		}
		for _, u := range urls {
			for _, st := range []int{0, 200, 404} {
				for _, pre := range []string{"", urlutil.Directory(u), strings.TrimPrefix(u, "http://"+h)} {
					q := archive.CDXQuery{Host: h, PathPrefix: pre, Status: st, Limit: 20}
					a.CDXCount(q)
					a.CDXList(q)
				}
			}
			a.CountInDirectory(u)
			a.CountOnHostname(u)
			a.FindQueryPermutation(u)
		}
		a.DomainURLs(urlutil.DomainOfHost(h), 50)
	}
}

// TestPagedCDXRejectsDamagedHostRecords damages every cdxhosts record
// three ways — its row count, its aux length, its bulk range — and
// re-checksums the section, so only the record-extent checks can
// notice. Serving opens without VerifyPaged, so every CDX query must
// still return; VerifyPaged must fail naming cdxhosts.
func TestPagedCDXRejectsDamagedHostRecords(t *testing.T) {
	a := archive.New()
	cdxWorld(rand.New(rand.NewSource(7)), a)
	clean := savedArchive(t, a)
	hosts := a.Hosts()

	for _, c := range []struct {
		name  string
		field int // byte offset within the 48-byte record
		value uint32
	}{
		{"row count", 16, 1 << 20},
		{"aux length", 40, 1 << 20},
		{"bulk range", 24, 1 << 20},
	} {
		t.Run(c.name, func(t *testing.T) {
			data := bytes.Clone(clean)
			for rec := 0; rec < len(hosts); rec++ {
				le.PutUint32(sectionAt(data, secCDXHosts)[rec*archive.CDXHostRecSize+c.field:], c.value)
			}
			rechecksum(data, secCDXHosts)

			b, err := openPagedBytes(data, nil)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			exerciseCDX(b.Archive, hosts)
			if n := b.Archive.CDXCount(archive.CDXQuery{Host: hosts[0]}); n != 0 {
				t.Errorf("damaged host answered CDXCount = %d, want 0 (absent)", n)
			}

			path := filepath.Join(t.TempDir(), "bad.pduniv")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			err = VerifyPaged(path)
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", sectionNames[secCDXHosts])) {
				t.Errorf("VerifyPaged = %v, want an error naming %q", err, sectionNames[secCDXHosts])
			}
		})
	}
}

// exercisePaged runs the non-CDX readers — the snapshot, latency and
// prefilter reads on urls, Site on every stored hostname, Article
// (wikidir) on titles and InCategory (the wikimeta category table) on
// cats. Like exerciseCDX it checks nothing: each call must return.
func exercisePaged(b *Bundle, urls, titles, cats []string) {
	a := b.Archive
	a.EachSnapshot(func(archive.Snapshot) {})
	for _, u := range urls {
		a.Snapshots(u)
		a.SnapshotsBetween(u, 100, 3000)
		a.First(u)
		a.FirstAfter(u, 1000)
		a.Closest(u, 1000, archive.AcceptUsable)
		a.Query(archive.AvailabilityQuery{URL: u, Want: 1000, Before: 4000, Timeout: time.Second}) //nolint:errcheck
		a.LookupLatency(u)
		a.MightHaveCaptures(u)
	}
	for _, h := range b.World.Hostnames() {
		b.World.Site(h)
	}
	for _, t := range titles {
		b.Wiki.Article(t)
	}
	for _, c := range cats {
		b.Wiki.InCategory(c)
	}
}

// TestPagedRejectsDamagedRecords damages, in every record, the stored
// extents the non-CDX readers follow — a snapkeys row count, a wikidir
// record length, a category's index count, a category's title indexes,
// a site's fault count — and re-checksums the section, so only the
// extent checks can notice.
// Serving opens without VerifyPaged, so every reader must return and
// read the damaged record as absent; VerifyPaged must fail naming the
// section.
func TestPagedRejectsDamagedRecords(t *testing.T) {
	u := worldgen.Generate(worldgen.SmallParams().Scale(0.2))
	var buf bytes.Buffer
	if err := SavePaged(&buf, FromUniverse(u)); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()
	var urls []string
	for _, lp := range u.Plan.Links {
		if len(u.Archive.Snapshots(lp.URL)) > 0 {
			urls = append(urls, lp.URL)
		}
	}
	titles := u.Wiki.Titles()
	hosts := u.World.Hostnames()
	const cat = "Simulated articles"
	if len(urls) == 0 || len(u.Wiki.InCategory(cat)) == 0 {
		t.Fatal("universe has no captured link or no categorised article")
	}
	// perCat calls fn on the byte offset of every category record of a
	// wikimeta section, and perIdx on every entry of its index table.
	perCat := func(meta []byte, fn func(rec int)) {
		for i := 0; i < int(rdU32(meta, 8)); i++ {
			fn(16 + 16*i)
		}
	}
	perIdx := func(meta []byte, fn func(off int)) {
		for off := 16 + 16*int(rdU32(meta, 8)); off < len(meta); off += 4 {
			fn(off)
		}
	}

	for _, c := range []struct {
		name   string
		kind   int
		damage func(sec []byte)
		absent func(b *Bundle) bool
	}{
		{"snapkeys row count", secSnapKeys, func(sec []byte) {
			for off := 0; off < len(sec); off += snapKeyRecSize {
				le.PutUint32(sec[off+12:], 1<<20)
			}
		}, func(b *Bundle) bool { return len(b.Archive.Snapshots(urls[0])) == 0 }},
		{"wikidir length", secWikiDir, func(sec []byte) {
			for off := 0; off < len(sec); off += wikiDirRecSize {
				le.PutUint32(sec[off+16:], 1<<30)
			}
		}, func(b *Bundle) bool { return b.Wiki.Article(titles[0]) == nil }},
		{"category count", secWikiMeta, func(sec []byte) {
			perCat(sec, func(rec int) { le.PutUint32(sec[rec+12:], 1<<20) })
		}, func(b *Bundle) bool { return len(b.Wiki.InCategory(cat)) == 0 }},
		{"category title index", secWikiMeta, func(sec []byte) {
			perIdx(sec, func(off int) { le.PutUint32(sec[off:], 1<<30) })
		}, func(b *Bundle) bool { return len(b.Wiki.InCategory(cat)) == 0 }},
		{"siteblobs fault count", secSiteBlobs, func(sec []byte) {
			dir := sectionAt(clean, secSiteDir)
			for off := 0; off < len(dir); off += siteDirRecSize {
				le.PutUint32(sec[rdU64(dir, off+8)+siteHeaderSize:], 1<<20)
			}
		}, func(b *Bundle) bool { return b.World.Site(hosts[0]) == nil }},
	} {
		t.Run(c.name, func(t *testing.T) {
			data := bytes.Clone(clean)
			c.damage(sectionAt(data, c.kind))
			rechecksum(data, c.kind)

			b, err := openPagedBytes(data, nil)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			// Absent first: InCategory also consults articles already loaded.
			if !c.absent(b) {
				t.Error("the damaged record answered; want it read as absent")
			}
			exercisePaged(b, urls, titles, []string{cat, "Articles with permanently dead external links"})

			path := filepath.Join(t.TempDir(), "bad.pduniv")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			err = VerifyPaged(path)
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", sectionNames[c.kind])) {
				t.Errorf("VerifyPaged = %v, want an error naming %q", err, sectionNames[c.kind])
			}
		})
	}
}

// fuzzedSections are the sections FuzzPagedSections rewrites: every
// section but params (gob's own decoder) and the arena (any bytes are
// valid strings).
var fuzzedSections = []int{secCDXHosts, secCDXData, secCDXAux, secBulk, secDomains,
	secSnapKeys, secWikiDir, secWikiBlobs, secWikiMeta,
	secSnapRows, secLatency, secPrefilter, secSiteDir, secSiteBlobs}

// FuzzPagedSections rewrites bytes of a small saved universe — each
// 6-byte group of ops picks a fuzzed section, or (one past the last)
// the superblock and section directory, an offset and a byte — then
// opens the result and runs every CDX query kind on the hosts it names,
// and the snapshot, latency, prefilter, site, article and category
// readers. The result must be answers or an open error, never a panic
// or a hang.
func FuzzPagedSections(f *testing.F) {
	a := archive.New()
	hosts, paths := cdxWorld(rand.New(rand.NewSource(3)), a)
	world := simweb.NewWorld()
	for i, h := range hosts[:min(3, len(hosts))] {
		s := world.AddSite(h, simclock.Day(i))
		s.Faults = append(s.Faults, simweb.FaultWindow{From: 10, To: 4000, Mode: simweb.FaultMode(i), Rate: 0.5, Seed: uint64(i)})
		pg := s.AddPage(paths[i], 5)
		pg.Content, pg.Title = "<p>page</p>", "Page"
	}
	wiki := wikimedia.NewWiki()
	var urls, titles []string
	for i := 0; i < 8; i++ {
		url := "http://" + hosts[i%len(hosts)] + paths[i%len(paths)]
		a.SetLookupLatency(url, time.Duration(i)*time.Second)
		title := fmt.Sprintf("Article %d", i)
		wiki.Create(title, simclock.Day(i), "U", fmt.Sprintf("[%s source]\n[[Category:Group %d]] [[Category:All]]", url, i%3))
		urls, titles = append(urls, url), append(titles, title)
	}
	cats := []string{"All", "Group 0", "Group 1", "Group 2"}
	var buf bytes.Buffer
	if err := SavePaged(&buf, &Bundle{World: world, Wiki: wiki, Archive: a}); err != nil {
		f.Fatal(err)
	}
	clean := buf.Bytes()
	header := len(fuzzedSections) // the op index that rewrites the header

	f.Add([]byte{})
	for i, kind := range fuzzedSections {
		sec := sectionAt(clean, kind)
		f.Add([]byte{byte(i), 16, 0, 0, 0, 0xff})
		f.Add([]byte{byte(i), byte(len(sec) / 2), byte(len(sec) / 512), 0, 0, 0x7f})
	}
	// A section's offset, a section's length, and the section count.
	for _, off := range []int{superblockSize + secSnapRows*dirEntrySize + 8, superblockSize + secPrefilter*dirEntrySize + 16, 8} {
		f.Add([]byte{byte(header), byte(off), byte(off >> 8), 0, 0, 0x09})
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		data := bytes.Clone(clean)
		for ; len(ops) >= 6; ops = ops[6:] {
			b := data[:superblockSize+numSections*dirEntrySize]
			if k := int(ops[0]) % (header + 1); k < header {
				// Where the section is in the clean file: an earlier op may
				// have rewritten the directory.
				e := superblockSize + fuzzedSections[k]*dirEntrySize
				off := rdU64(clean, e+8)
				b = data[off : off+rdU64(clean, e+16)]
			}
			if len(b) > 0 {
				b[int(le.Uint32(ops[1:5]))%len(b)] = ops[5]
			}
		}
		b, err := openPagedBytes(data, nil)
		if err != nil {
			return
		}
		hosts := b.Archive.Hosts()
		if len(hosts) > 8 {
			hosts = hosts[:8]
		}
		exerciseCDX(b.Archive, hosts)
		exercisePaged(b, urls, append(titles, b.Wiki.Titles()...), cats)
	})
}

// TestPagedCDXAllocs is the paged twin of TestCDXListFrozenAllocs: the
// per-call allocations of the CDX queries on a paged archive. Counts,
// coverage counts and index misses allocate nothing; a listing costs
// its match ranks, its output and one URL per row (the paged file
// stores paths, not URLs), as the parent's paged store did.
func TestPagedCDXAllocs(t *testing.T) {
	mem := archive.New()
	saved := archive.New()
	for _, a := range []*archive.Archive{mem, saved} {
		for i := 0; i < 2000; i++ {
			a.Add(archive.Snapshot{URL: fmt.Sprintf("http://alloc.simtest/dir%d/p%04d.html", i%8, i), Day: simclock.Day(10 + i%900), InitialStatus: 200, FinalStatus: 200})
		}
		a.Add(archive.Snapshot{URL: "http://alloc.simtest/v?b=1&a=2", Day: 10, InitialStatus: 200, FinalStatus: 200})
	}
	mem.Freeze()
	b, err := openPagedBytes(savedArchive(t, saved), nil)
	if err != nil {
		t.Fatal(err)
	}
	pa := b.Archive

	url := "http://alloc.simtest/dir3/p0003.html"
	miss := "http://alloc.simtest/v?c=1"
	for _, c := range []struct {
		name string
		fn   func(a *archive.Archive)
		max  float64
	}{
		{"CDXCount", func(a *archive.Archive) {
			a.CDXCount(archive.CDXQuery{Host: "alloc.simtest", PathPrefix: "/dir3/", Status: 200})
		}, 0},
		{"CountInDirectory", func(a *archive.Archive) { a.CountInDirectory(url) }, 0},
		{"CountOnHostname", func(a *archive.Archive) { a.CountOnHostname(url) }, 0},
		{"CDXList prefix", func(a *archive.Archive) {
			a.CDXList(archive.CDXQuery{Host: "alloc.simtest", PathPrefix: "/dir3/", Status: 200, Limit: 100})
		}, 102},
		{"CDXList whole host", func(a *archive.Archive) { a.CDXList(archive.CDXQuery{Host: "alloc.simtest", Limit: 100}) }, 101},
		{"CDXList status", func(a *archive.Archive) { a.CDXList(archive.CDXQuery{Host: "alloc.simtest", Status: 200, Limit: 100}) }, 102},
	} {
		if got := testing.AllocsPerRun(100, func() { c.fn(pa) }); got > c.max {
			t.Errorf("paged %s allocs/op = %.1f, want <= %.0f", c.name, got, c.max)
		}
	}

	// A FindQueryPermutation miss allocates only in urlutil's
	// canonicalisation of the probe, on either backing: the paged index
	// adds nothing to what the in-memory one (0, pinned in
	// internal/archive) does.
	fqp := func(a *archive.Archive) float64 {
		return testing.AllocsPerRun(100, func() { a.FindQueryPermutation(miss) })
	}
	if got, want := fqp(pa), fqp(mem); got != want {
		t.Errorf("paged FindQueryPermutation miss allocs/op = %.1f, in-memory %.1f", got, want)
	}
}
