package persist

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"hash/crc64"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"permadead/internal/archive"
	"permadead/internal/iabot"
	"permadead/internal/urlutil"
	"permadead/internal/wikitext"
	"permadead/internal/worldgen"
)

// pagedPair is a generated universe alongside its paged round-trip:
// the in-memory bundle is the reference, the paged bundle serves the
// same state from format-v4 bytes.
type pagedPair struct {
	mem   *Bundle
	paged *Bundle
	saved []byte // the file bytes paged serves from
}

func makePagedPair(t *testing.T, scale float64) *pagedPair {
	t.Helper()
	u := worldgen.Generate(worldgen.SmallParams().Scale(scale))
	mem := FromUniverse(u)
	var buf bytes.Buffer
	if err := SavePaged(&buf, mem); err != nil {
		t.Fatal(err)
	}
	paged, err := openPagedBytes(buf.Bytes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := paged.Archive.Export(); err == nil {
		t.Fatal("paged load did not produce an archive serving the file's sections")
	}
	return &pagedPair{mem: mem, paged: paged, saved: buf.Bytes()}
}

// checkArchive compares every archive query kind between the paged
// store and the in-memory reference.
func (pp *pagedPair) checkArchive(t *testing.T) {
	t.Helper()
	ma, pa := pp.mem.Archive, pp.paged.Archive

	if got, want := pa.TotalSnapshots(), ma.TotalSnapshots(); got != want {
		t.Errorf("TotalSnapshots = %d, want %d", got, want)
	}
	hosts := ma.Hosts()
	if got := pa.Hosts(); !reflect.DeepEqual(got, hosts) {
		t.Fatalf("Hosts differ: %d vs %d entries", len(got), len(hosts))
	}

	// Snapshot store: every key's captures, plus misses.
	var urls, queryURLs []string
	eachSnapshotsByKey(ma, func(key string, snaps []archive.Snapshot) {
		if got := pa.Snapshots("http://" + key); !reflect.DeepEqual(got, snaps) {
			t.Errorf("Snapshots(%q): %d vs %d rows", key, len(got), len(snaps))
		}
		for _, s := range snaps {
			urls = append(urls, s.URL)
			if urlutil.HasQuery(s.URL) {
				queryURLs = append(queryURLs, s.URL)
			}
		}
	})
	if got := pa.Snapshots("http://never.captured.simtest/x"); got != nil {
		t.Errorf("Snapshots(miss) = %v, want nil", got)
	}

	// CDX queries across every host, with the shapes the study issues.
	statuses := []int{0, 200, 404, 301, 503}
	prefixes := []string{"", "/", "/a/", "/news/2014/", "/missing/"}
	for _, host := range hosts {
		for _, st := range statuses {
			for _, pre := range prefixes {
				q := archive.CDXQuery{Host: host, PathPrefix: pre, Status: st}
				if got, want := pa.CDXCount(q), ma.CDXCount(q); got != want {
					t.Fatalf("CDXCount(%+v) = %d, want %d", q, got, want)
				}
				q.Limit = 50
				if got, want := pa.CDXList(q), ma.CDXList(q); !reflect.DeepEqual(got, want) {
					t.Fatalf("CDXList(%+v) differs: %d vs %d rows", q, len(got), len(want))
				}
			}
		}
	}
	for _, url := range sample(urls, 200) {
		if got, want := pa.CountInDirectory(url), ma.CountInDirectory(url); got != want {
			t.Errorf("CountInDirectory(%s) = %d, want %d", url, got, want)
		}
		if got, want := pa.CountOnHostname(url), ma.CountOnHostname(url); got != want {
			t.Errorf("CountOnHostname(%s) = %d, want %d", url, got, want)
		}
		if got, want := pa.LookupLatency(url), ma.LookupLatency(url); got != want {
			t.Errorf("LookupLatency(%s) = %v, want %v", url, got, want)
		}
	}
	for _, url := range sample(queryURLs, 200) {
		gu, gok := pa.FindQueryPermutation(url)
		wu, wok := ma.FindQueryPermutation(url)
		if gu != wu || gok != wok {
			t.Errorf("FindQueryPermutation(%s) = %q/%v, want %q/%v", url, gu, gok, wu, wok)
		}
	}

	domains := map[string]bool{}
	for _, h := range hosts {
		domains[urlutil.DomainOfHost(h)] = true
	}
	for d := range domains {
		for _, limit := range []int{5, 100} {
			gotURLs, gotTrunc := pa.DomainURLs(d, limit)
			wantURLs, wantTrunc := ma.DomainURLs(d, limit)
			if gotTrunc != wantTrunc || !reflect.DeepEqual(gotURLs, wantURLs) {
				t.Errorf("DomainURLs(%s, %d) differ", d, limit)
			}
		}
	}

	// Bulk regions and latency overrides enumerate identically (as
	// sets — in-memory enumeration order is map order).
	if got, want := regionSet(pa), regionSet(ma); !reflect.DeepEqual(got, want) {
		t.Errorf("bulk regions differ: %d vs %d", len(got), len(want))
	}
	gotLat, wantLat := map[string]int{}, map[string]int{}
	for _, k := range latencyKeys(t, sectionAt(pp.saved, secLatency), string(sectionAt(pp.saved, secArena))) {
		gotLat[k] = int(pa.LookupLatency("http://"+k) / time.Millisecond)
	}
	s, _, err := ma.Export()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range latencyKeys(t, s.Latency, s.Arena) {
		wantLat[k] = int(ma.LookupLatency("http://"+k) / time.Millisecond)
	}
	if !reflect.DeepEqual(gotLat, wantLat) {
		t.Errorf("latency overrides differ: %d vs %d", len(gotLat), len(wantLat))
	}

	// The persisted prefilter answers like the rebuilt one.
	gs, ws := pa.PrefilterStats(), ma.PrefilterStats()
	if gs.Keys != ws.Keys || gs.Bits != ws.Bits || !gs.Enabled {
		t.Errorf("prefilter: got %d keys/%d bits (enabled=%v), want %d/%d", gs.Keys, gs.Bits, gs.Enabled, ws.Keys, ws.Bits)
	}
}

// checkWorldWiki compares the lazily-served world and wiki against the
// in-memory ones.
func (pp *pagedPair) checkWorldWiki(t *testing.T) {
	t.Helper()
	if got, want := pp.paged.World.Sites(), pp.mem.World.Sites(); got != want {
		t.Errorf("Sites = %d, want %d", got, want)
	}
	hosts := pp.mem.World.Hostnames()
	if got := pp.paged.World.Hostnames(); !reflect.DeepEqual(got, hosts) {
		t.Fatalf("Hostnames differ")
	}
	for _, h := range hosts {
		a, b := pp.mem.World.Site(h), pp.paged.World.Site(h)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("site %s differs after paged load:\nmem   %+v\npaged %+v", h, a, b)
		}
		if pp.paged.World.Site(h) != b {
			t.Fatalf("site %s not cached: repeated lookups return distinct instances", h)
		}
	}
	if pp.paged.World.Site("no.such.host.simtest") != nil {
		t.Error("unknown host resolved on paged world")
	}

	if got, want := pp.paged.Wiki.Len(), pp.mem.Wiki.Len(); got != want {
		t.Errorf("Len = %d, want %d", got, want)
	}
	titles := pp.mem.Wiki.Titles()
	if got := pp.paged.Wiki.Titles(); !reflect.DeepEqual(got, titles) {
		t.Fatalf("Titles differ")
	}
	cats := map[string]bool{iabot.Category: true, "No Such Category": true}
	for _, tt := range titles {
		a, b := pp.mem.Wiki.Article(tt), pp.paged.Wiki.Article(tt)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("article %q differs after paged load", tt)
		}
		for _, c := range pp.mem.Wiki.Links(a.Current()).Categories {
			cats[c] = true
		}
	}
	if pp.paged.Wiki.Article("No Such Article") != nil {
		t.Error("unknown title resolved on paged wiki")
	}
	for c := range cats {
		if got, want := pp.paged.Wiki.InCategory(c), pp.mem.Wiki.InCategory(c); !reflect.DeepEqual(got, want) {
			t.Errorf("InCategory(%q) = %d titles, want %d", c, len(got), len(want))
		}
	}
}

func sample(xs []string, n int) []string {
	if len(xs) <= n {
		return xs
	}
	step := len(xs) / n
	out := make([]string, 0, n)
	for i := 0; i < len(xs); i += step {
		out = append(out, xs[i])
	}
	return out
}

// eachSnapshotsByKey calls fn once per scheme-agnostic URL key, in key
// order, with the key's snapshots oldest-first: EachSnapshot, grouped.
func eachSnapshotsByKey(a *archive.Archive, fn func(key string, snaps []archive.Snapshot)) {
	byKey := map[string][]archive.Snapshot{}
	var keys []string
	a.EachSnapshot(func(s archive.Snapshot) {
		key := urlutil.SchemeAgnosticKey(s.URL)
		if byKey[key] == nil {
			keys = append(keys, key)
		}
		byKey[key] = append(byKey[key], s)
	})
	sort.Strings(keys)
	for _, key := range keys {
		fn(key, byKey[key])
	}
}

// latencyKeys returns the keys of the availability-latency overrides a
// latency section holds, whose references point into arena. A key
// listed twice fails t.
func latencyKeys(t *testing.T, sec []byte, arena string) []string {
	t.Helper()
	var keys []string
	seen := map[string]bool{}
	for off := 0; off < len(sec); off += latencyRecSize {
		o := rdU32(sec, off)
		k := arena[o : o+rdU32(sec, off+4)]
		if seen[k] {
			t.Errorf("latency override %q listed twice", k)
		}
		seen[k] = true
		keys = append(keys, k)
	}
	return keys
}

func regionSet(a *archive.Archive) map[archive.BulkRegion]bool {
	m := make(map[archive.BulkRegion]bool)
	a.EachBulkRegion(func(r archive.BulkRegion) { m[r] = true })
	return m
}

// TestPagedRoundTripDifferential is the v4 differential test: a saved
// and reopened paged universe must answer every query kind — snapshot
// lookups, all five CDX query kinds, latency, world, wiki, categories
// — identically to the in-memory universe it was saved from.
func TestPagedRoundTripDifferential(t *testing.T) {
	pp := makePagedPair(t, 0.5)
	defer pp.paged.Close()
	pp.checkArchive(t)
	pp.checkWorldWiki(t)
	if !reflect.DeepEqual(pp.paged.Params, pp.mem.Params) {
		t.Errorf("params differ: %+v vs %+v", pp.paged.Params, pp.mem.Params)
	}
}

// TestPagedConcurrentReads hammers one paged bundle from many
// goroutines; under -race this enforces the lock-free read contract of
// the store and the fault-in discipline of the lazy world and wiki.
func TestPagedConcurrentReads(t *testing.T) {
	pp := makePagedPair(t, 0.3)
	defer pp.paged.Close()
	hosts := pp.mem.World.Hostnames()
	titles := pp.mem.Wiki.Titles()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < len(hosts); i += 3 {
				h := hosts[i]
				if pp.paged.World.Site(h) == nil {
					t.Errorf("site %s missing", h)
				}
				pp.paged.Archive.CDXCount(archive.CDXQuery{Host: h, Status: 200})
				pp.paged.Archive.CDXList(archive.CDXQuery{Host: h, Limit: 10})
			}
			for i := g; i < len(titles); i += 3 {
				if pp.paged.Wiki.Article(titles[i]) == nil {
					t.Errorf("article %q missing", titles[i])
				}
			}
			pp.paged.Wiki.InCategory(iabot.Category)
		}()
	}
	wg.Wait()
}

// TestPagedWikiStaysEditable checks the serving-shape contract: a
// lazily-backed wiki accepts new edits, continues the revision-ID
// sequence from the file's maximum, and category listings reflect
// live edits over the stored index.
func TestPagedWikiStaysEditable(t *testing.T) {
	pp := makePagedPair(t, 0.3)
	defer pp.paged.Close()

	inCat := pp.paged.Wiki.InCategory(iabot.Category)
	if len(inCat) == 0 {
		t.Skip("no tagged articles in generated universe")
	}
	title := inCat[0]
	before := pp.paged.Wiki.Article(title)
	maxID := 0
	for _, ts := range pp.paged.Wiki.Titles() {
		a := pp.paged.Wiki.Article(ts)
		for _, r := range a.Revisions {
			if r.ID > maxID {
				maxID = r.ID
			}
		}
	}

	untagged := before.Current().Apply([]wikitext.Edit{{Op: wikitext.RemoveCategory, Category: iabot.Category}})
	rev, err := pp.paged.Wiki.Edit(title, before.Current().Day+1, "Cleaner", "untag", untagged)
	if err != nil {
		t.Fatal(err)
	}
	if rev.ID <= maxID {
		t.Errorf("new revision ID %d does not continue the sequence past %d", rev.ID, maxID)
	}
	if _, cats := wikitext.AppendDigest(nil, nil, rev.Text); slices.Contains(cats, wikitext.CanonicalCategory(iabot.Category)) {
		t.Fatal("edit text still carries the category; test setup broken")
	}
	for _, got := range pp.paged.Wiki.InCategory(iabot.Category) {
		if got == title {
			t.Errorf("%q still listed in category after live edit removed it", title)
		}
	}
}

// TestPagedWikiListsLiveAdditions covers the two directions of
// category change TestPagedWikiStaysEditable does not: an edit that
// tags an article the stored index lists outside the category, and a
// new article created with the tag. Both must be listed, and the
// stored members must stay listed beside them.
func TestPagedWikiListsLiveAdditions(t *testing.T) {
	pp := makePagedPair(t, 0.3)
	defer pp.paged.Close()
	w := pp.paged.Wiki

	stored := w.InCategory(iabot.Category)
	listed := make(map[string]bool, len(stored))
	for _, ts := range stored {
		listed[ts] = true
	}
	var outside string
	for _, ts := range w.Titles() {
		if !listed[ts] {
			outside = ts
			break
		}
	}
	if outside == "" || len(stored) == 0 {
		t.Skip("generated universe has no article on both sides of the category")
	}

	cur := w.Article(outside).Current()
	tagged := cur.Apply([]wikitext.Edit{{Op: wikitext.AddCategory, Category: iabot.Category}})
	if _, err := w.Edit(outside, cur.Day+1, "Tagger", "tag", tagged); err != nil {
		t.Fatal(err)
	}
	const created = "Zz live-created article"
	w.Create(created, cur.Day+1, "Author", "New text. [[Category:"+iabot.Category+"]]")

	want := append([]string{outside, created}, stored...)
	sort.Strings(want)
	if got := w.InCategory(iabot.Category); !reflect.DeepEqual(got, want) {
		t.Errorf("InCategory after tagging %q and creating %q: %d titles, want %d", outside, created, len(got), len(want))
	}
}

// TestInCategoryFaultedInAllocs pins the category listing's cost to
// the stored index: with every article faulted in and none edited,
// listing allocates no more than twice what it does on a fresh bundle,
// so it parses no loaded article.
func TestInCategoryFaultedInAllocs(t *testing.T) {
	pp := makePagedPair(t, 0.3)
	defer pp.paged.Close()
	w := pp.paged.Wiki
	list := func() { w.InCategory(iabot.Category) }

	cold := testing.AllocsPerRun(20, list)
	for _, ts := range w.Titles() {
		w.Article(ts)
	}
	if warm := testing.AllocsPerRun(20, list); warm > 2*cold {
		t.Errorf("InCategory with every article faulted in: %.0f allocations, cold %.0f (ceiling 2x)", warm, cold)
	}
}

// TestConverterDeterministic is the golden property saved artifacts
// rely on: SavePaged twice over one universe is byte-identical, so
// saved files can be checksummed and cached.
func TestConverterDeterministic(t *testing.T) {
	mem := FromUniverse(worldgen.Generate(worldgen.SmallParams().Scale(0.3)))
	save := func() []byte {
		var out bytes.Buffer
		if err := SavePaged(&out, mem); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	a, b := save(), save()
	if sha256.Sum256(a) != sha256.Sum256(b) {
		t.Fatal("two saves of the same universe produced different paged bytes")
	}

	// And the saved bytes still answer like the universe they came from.
	paged, err := openPagedBytes(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	pp := &pagedPair{mem: mem, paged: paged, saved: a}
	pp.checkArchive(t)
	pp.checkWorldWiki(t)
}

// savePagedFile saves u to a fresh file and returns its path.
func savePagedFile(t *testing.T, u *worldgen.Universe) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "u.pduniv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := SavePaged(f, FromUniverse(u)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// writePagedFile saves a small universe to disk and returns its path.
func writePagedFile(t *testing.T) string {
	t.Helper()
	return savePagedFile(t, worldgen.Generate(worldgen.SmallParams().Scale(0.2)))
}

// TestVerifyPagedNamesCorruptedSection flips one byte inside every
// section in turn and asserts VerifyPaged names exactly that section.
func TestVerifyPagedNamesCorruptedSection(t *testing.T) {
	path := writePagedFile(t)
	if err := VerifyPaged(path); err != nil {
		t.Fatalf("pristine file failed verification: %v", err)
	}
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for kind := 0; kind < numSections; kind++ {
		base := superblockSize + kind*dirEntrySize
		off := rdU64(clean, base+8)
		length := rdU64(clean, base+16)
		if length == 0 {
			continue
		}
		corrupt := bytes.Clone(clean)
		corrupt[off+length/2] ^= 0xff
		bad := filepath.Join(t.TempDir(), "bad.pduniv")
		if err := os.WriteFile(bad, corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		err := VerifyPaged(bad)
		if err == nil {
			t.Fatalf("section %q: corruption not detected", sectionNames[kind])
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("%q", sectionNames[kind])) {
			t.Errorf("section %q: error does not name it: %v", sectionNames[kind], err)
		}
	}
}

// TestOpenPagedNamesTruncatedSection truncates the file mid-section
// and asserts the open error says "truncated" and names the section
// that no longer fits.
func TestOpenPagedNamesTruncatedSection(t *testing.T) {
	path := writePagedFile(t)
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Cut inside the arena section (first half of its range).
	base := superblockSize + secArena*dirEntrySize
	off := rdU64(clean, base+8)
	length := rdU64(clean, base+16)
	cut := filepath.Join(t.TempDir(), "cut.pduniv")
	if err := os.WriteFile(cut, clean[:off+length/2], 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenPaged(cut)
	if err == nil {
		t.Fatal("truncated file opened without error")
	}
	if !strings.Contains(err.Error(), "truncated") {
		t.Errorf("error does not say truncated: %v", err)
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("%q", sectionNames[secArena])) {
		t.Errorf("error does not name the cut section: %v", err)
	}

	// Cut inside the directory itself.
	cut2 := filepath.Join(t.TempDir(), "cut2.pduniv")
	if err := os.WriteFile(cut2, clean[:superblockSize+3*dirEntrySize], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenPaged(cut2); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Errorf("directory truncation: %v", err)
	}
}

// TestOpenPagedReportsFoundVersion mirrors the v3 version-mismatch
// contract for v4 superblocks.
func TestOpenPagedReportsFoundVersion(t *testing.T) {
	path := writePagedFile(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	le.PutUint32(data[4:], 9)
	bad := filepath.Join(t.TempDir(), "v9.pduniv")
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenPaged(bad)
	if err == nil {
		t.Fatal("version-9 file opened without error")
	}
	if !strings.Contains(err.Error(), "version 9 found") || !strings.Contains(err.Error(), "version 4") {
		t.Errorf("error does not name both versions: %v", err)
	}
}

// TestVerifyPagedDecodesSiteRecords damages one site record's fault
// count and re-checksums the section, so only the decode pass can
// notice: VerifyPaged must fail naming siteblobs, the way it would if
// encodeSite and decodeSite drifted apart.
func TestVerifyPagedDecodesSiteRecords(t *testing.T) {
	p := worldgen.SmallParams().Scale(0.2)
	p.FlakySiteFrac = 1
	p.FlakyRate = 0.7
	path := savePagedFile(t, worldgen.Generate(p))
	if err := VerifyPaged(path); err != nil {
		t.Fatalf("pristine flaky file failed verification: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	dirEntry := func(kind int) (off, length uint64) {
		base := superblockSize + kind*dirEntrySize
		return rdU64(data, base+8), rdU64(data, base+16)
	}
	dirOff, _ := dirEntry(secSiteDir)
	blobOff, blobLen := dirEntry(secSiteBlobs)
	// The first site's record: its fault count sits after the header.
	rec := blobOff + rdU64(data, int(dirOff)+8)
	count := data[rec+siteHeaderSize:]
	if rdU32(count, 0) == 0 {
		t.Fatal("first site of a fully flaky universe has no fault windows")
	}
	le.PutUint32(count, rdU32(count, 0)-1)
	crc := crc64.Checksum(data[blobOff:blobOff+blobLen], crcTable)
	le.PutUint64(data[superblockSize+secSiteBlobs*dirEntrySize+24:], crc)

	bad := filepath.Join(t.TempDir(), "bad.pduniv")
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}
	err = VerifyPaged(bad)
	if err == nil {
		t.Fatal("a site record that no longer fills its directory length verified clean")
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("%q", sectionNames[secSiteBlobs])) {
		t.Errorf("error does not name siteblobs: %v", err)
	}
}

// TestPagedSaveRejectsStoreBacked pins the re-save contract: a bundle
// already serving from a paged file cannot be re-encoded.
func TestPagedSaveRejectsStoreBacked(t *testing.T) {
	pp := makePagedPair(t, 0.2)
	defer pp.paged.Close()
	var buf bytes.Buffer
	if err := SavePaged(&buf, pp.paged); err == nil {
		t.Fatal("SavePaged of a store-backed bundle should fail")
	}
}
