package persist

import (
	"fmt"
	"math"
	"sort"

	"permadead/internal/simclock"
	"permadead/internal/simweb"
	"permadead/internal/wikimedia"
	"permadead/internal/wikitext"
)

// pagedStore serves the site and wiki sections of a format-v4 file
// (the archive serves its own sections, archive.Open). It implements
// simweb.SiteSource and wikimedia.ArticleSource directly against the
// mapped bytes: point lookups are binary searches over fixed-width,
// key-sorted record sections, strings are zero-copy views into the
// arena, and nothing is materialized until a query touches it.
//
// All methods are safe for concurrent use — the mapping is read-only
// and the store holds no mutable state.
type pagedStore struct {
	sec [numSections][]byte
	// arena is the arena section as one string; every string the store
	// hands out is a substring of it.
	arena string

	// Decoded once at open: tiny, and needed before first query.
	maxRevID              int
	numSites, numArticles int

	// wikimeta internal offsets (byte offsets into secWikiMeta).
	numCats, catTable, catIdx int
}

// str returns the arena string for a reference, as a zero-copy view
// into the mapping. Views stay valid until the bundle is closed.
// A reference outside the arena (a damaged file) reads as "".
func (p *pagedStore) str(off, ln uint32) string {
	if ln == 0 || uint64(off)+uint64(ln) > uint64(len(p.arena)) {
		return ""
	}
	return p.arena[off : off+ln]
}

// refAt reads a (offset, length) string reference at a byte offset.
func (p *pagedStore) refAt(sec int, off int) string {
	b := p.sec[sec]
	return p.str(rdU32(b, off), rdU32(b, off+4))
}

// searchRecs binary-searches n key-sorted fixed-width records.
func searchRecs(n int, key string, at func(i int) string) (int, bool) {
	i := sort.Search(n, func(i int) bool { return at(i) >= key })
	return i, i < n && at(i) == key
}

// --- simweb.SiteSource ----------------------------------------------

func (p *pagedStore) siteHostAt(i int) string {
	return p.refAt(secSiteDir, i*siteDirRecSize)
}

func (p *pagedStore) NumSites() int { return p.numSites }

func (p *pagedStore) Hostnames() []string {
	hs := make([]string, p.numSites)
	for i := range hs {
		hs[i] = p.siteHostAt(i)
	}
	return hs
}

func (p *pagedStore) LoadSite(hostname string) *simweb.Site {
	i, found := searchRecs(p.numSites, hostname, p.siteHostAt)
	if !found {
		return nil
	}
	s, err := p.siteAt(i, hostname)
	if err != nil {
		return nil // a damaged record reads as absent; VerifyPaged names it
	}
	return s
}

// siteAt decodes the site sitedir record i points at. The decode must
// consume exactly the length the directory recorded, so a writer and a
// reader that disagree on the record layout fail here — and under
// VerifyPaged, which walks every record — naming the section.
func (p *pagedStore) siteAt(i int, hostname string) (*simweb.Site, error) {
	d := p.sec[secSiteDir]
	base := rdU64(d, i*siteDirRecSize+8)
	ln := uint64(rdU32(d, i*siteDirRecSize+16))
	blobs := p.sec[secSiteBlobs]
	fail := func(err error) (*simweb.Site, error) {
		return nil, fmt.Errorf("persist: section %q: site %q: %w", sectionNames[secSiteBlobs], hostname, err)
	}
	if base > uint64(len(blobs)) || ln > uint64(len(blobs))-base {
		return fail(fmt.Errorf("directory entry (offset %d, length %d) outside the %d-byte section", base, ln, len(blobs)))
	}
	s, used, err := p.decodeSite(hostname, blobs[base:base+ln])
	if err != nil {
		return fail(err)
	}
	if uint64(used) != ln {
		return fail(fmt.Errorf("decode consumed %d of the %d bytes the directory records", used, ln))
	}
	return s, nil
}

// decodeSite decodes one siteblobs record (encodeSite is the writer)
// and reports how many bytes of b it occupied.
func (p *pagedStore) decodeSite(hostname string, b []byte) (s *simweb.Site, off int, err error) {
	if len(b) < siteHeaderSize {
		return nil, 0, fmt.Errorf("record is %d bytes, shorter than the %d-byte site header", len(b), siteHeaderSize)
	}
	// count and str leave the first failure in err and then yield zero
	// values, so the loops below fall through to the one check at the end.
	//
	// count reads the u32 record count at off, steps past it, and
	// requires that many size-byte records to fit in what is left of b.
	count := func(size int, what string) int {
		if err != nil {
			return 0
		}
		if len(b)-off < 4 || uint64(rdU32(b, off)) > uint64((len(b)-off-4)/size) {
			err = fmt.Errorf("%s do not fit in the record's %d bytes (count at offset %d)", what, len(b), off)
			return 0
		}
		off += 4
		return int(rdU32(b, off-4))
	}
	str := func(at int) string {
		o, n := rdU32(b, at), rdU32(b, at+4)
		if uint64(o)+uint64(n) > uint64(len(p.sec[secArena])) {
			err = fmt.Errorf("string reference (%d, %d) outside the arena", o, n)
			return ""
		}
		return p.str(o, n)
	}
	day := func(at int) simclock.Day { return simclock.Day(rdI32(b, at)) }

	s = simweb.NewSite(hostname, day(4))
	s.Rank = rdI32(b, 0)
	s.DNSDiesAt = day(8)
	s.TimeoutFrom = day(12)
	s.ParkedAt = day(16)
	s.GeoBlockedFrom = day(20)
	s.OutageFrom = day(24)
	s.OutageTo = day(28)
	s.ErrorStyle = simweb.ErrorStyle(rdU16(b, 32))
	s.ErrorStyleAfter = simweb.ErrorStyle(rdU16(b, 34))
	s.ErrorStyleSwitchAt = day(36)
	s.LoginPath = str(40)
	s.Seed = rdU64(b, 48)

	off = siteHeaderSize
	for j, n := 0, count(faultRecSize, "fault windows"); j < n; j++ {
		s.Faults = append(s.Faults, simweb.FaultWindow{
			From:          day(off),
			To:            day(off + 4),
			Mode:          simweb.FaultMode(rdU32(b, off+8)),
			Rate:          rdF64(b, off+12),
			RetryAfterSec: rdI32(b, off+20),
			// off+24 is a u32 pad.
			Seed: rdU64(b, off+28),
		})
		off += faultRecSize
	}
	for j, n := 0, count(pageRecSize, "pages"); j < n && err == nil; j++ {
		pg := s.AddPage(str(off), day(off+8))
		pg.DeletedAt = day(off + 12)
		pg.RestoredAt = day(off + 16)
		pg.MovedAt = day(off + 20)
		pg.NewPath = str(off + 24)
		pg.RedirectFrom = day(off + 32)
		pg.RedirectUntil = day(off + 36)
		pg.Content = str(off + 40)
		pg.Title = str(off + 48)
		off += pageRecSize
	}
	if err != nil {
		return nil, 0, err
	}
	return s, off, nil
}

// --- wikimedia.ArticleSource ----------------------------------------

func (p *pagedStore) titleAt(i int) string {
	return p.refAt(secWikiDir, i*wikiDirRecSize)
}

func (p *pagedStore) NumArticles() int { return p.numArticles }
func (p *pagedStore) MaxRevID() int    { return p.maxRevID }

func (p *pagedStore) Titles() []string {
	ts := make([]string, p.numArticles)
	for i := range ts {
		ts[i] = p.titleAt(i)
	}
	return ts
}

func (p *pagedStore) LoadArticle(title string) *wikimedia.Article {
	i, found := searchRecs(p.numArticles, title, p.titleAt)
	if !found {
		return nil
	}
	a, err := p.articleAt(i, title)
	if err != nil {
		return nil // a damaged record reads as absent; VerifyPaged names it
	}
	return a
}

// articleAt decodes the wikiblobs record wikidir record i points at. The
// record must lie inside the section and be exactly its revision count
// of revisions long.
func (p *pagedStore) articleAt(i int, title string) (*wikimedia.Article, error) {
	d := p.sec[secWikiDir]
	base := rdU64(d, i*wikiDirRecSize+8)
	ln := uint64(rdU32(d, i*wikiDirRecSize+16))
	blobs := p.sec[secWikiBlobs]
	if base > uint64(len(blobs)) || ln > uint64(len(blobs))-base {
		return nil, fmt.Errorf("persist: section %q: article %q: entry (offset %d, length %d) outside the %d-byte %q section",
			sectionNames[secWikiDir], title, base, ln, len(blobs), sectionNames[secWikiBlobs])
	}
	b := blobs[base : base+ln]
	if ln < 4 || uint64(rdU32(b, 0))*revRecSize != ln-4 {
		return nil, fmt.Errorf("persist: section %q: article %q: revision count does not fill the %d bytes its directory entry records",
			sectionNames[secWikiBlobs], title, ln)
	}
	a := &wikimedia.Article{Title: title, Revisions: make([]wikimedia.Revision, rdU32(b, 0))}
	off := 4
	for j := range a.Revisions {
		a.Revisions[j] = wikimedia.Revision{
			ID:      int(rdU32(b, off)),
			Day:     simclock.Day(rdI32(b, off+4)),
			User:    p.str(rdU32(b, off+8), rdU32(b, off+12)),
			Comment: p.str(rdU32(b, off+16), rdU32(b, off+20)),
			Text:    p.str(rdU32(b, off+24), rdU32(b, off+28)),
		}
		off += revRecSize
	}
	return a, nil
}

func (p *pagedStore) CategoryTitles(category string) []string {
	want := wikitext.CanonicalCategory(category)
	b := p.sec[secWikiMeta]
	at := func(i int) string {
		return p.str(rdU32(b, p.catTable+16*i), rdU32(b, p.catTable+16*i+4))
	}
	i, found := searchRecs(p.numCats, want, at)
	if !found {
		return nil
	}
	titles, err := p.categoryAt(i)
	if err != nil {
		return nil // a damaged record reads as absent; VerifyPaged names it
	}
	return titles
}

// categoryAt reads category record i's member titles. Its run of title
// indexes must lie inside the index table, and each must name an
// article.
func (p *pagedStore) categoryAt(i int) ([]string, error) {
	b := p.sec[secWikiMeta]
	start := rdU32(b, p.catTable+16*i+8)
	count := rdU32(b, p.catTable+16*i+12)
	if uint64(start)+uint64(count) > uint64((len(b)-p.catIdx)/4) {
		return nil, fmt.Errorf("persist: section %q: category %d (indexes %d+%d) outside the index table",
			sectionNames[secWikiMeta], i, start, count)
	}
	titles := make([]string, count)
	for j := range titles {
		idx := rdU32(b, p.catIdx+4*(int(start)+j))
		if uint64(idx) >= uint64(p.numArticles) {
			return nil, fmt.Errorf("persist: section %q: category %d names article %d of %d",
				sectionNames[secWikiMeta], i, idx, p.numArticles)
		}
		titles[j] = p.titleAt(int(idx))
	}
	return titles, nil
}

func rdF64(b []byte, off int) float64 {
	return math.Float64frombits(rdU64(b, off))
}
