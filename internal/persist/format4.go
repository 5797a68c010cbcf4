package persist

// Persist format v4: the paged universe file (DESIGN.md §3.6).
//
// The file lays the universe out so the serving process can answer
// queries directly against the file bytes, with no decode, allocation,
// or re-indexing pass before the first query:
//
//	superblock (24 B)
//	section directory (sectionCount × 32 B)
//	sections, 8-byte aligned, in kind order
//
// Every string lives once in a shared arena section and is referenced
// elsewhere as a (offset, length) pair of uint32s; fixed-width record
// sections are sorted by their lookup key (hostname, URL key, title)
// so point queries are binary searches over the mapping. The nine
// archive sections (cdxhosts through prefilter) are internal/archive's
// layout, which it builds at Freeze, exports for SavePaged and serves
// through archive.Open; this package owns the framing, params, the
// arena's tail and the site and wiki sections. Sections carry CRC-64
// checksums in the directory; openers verify bounds eagerly (errors
// name the failing section) and checksums on demand (VerifyPaged).
//
// All integers are little-endian. Days are int32 (simclock.Never is
// -1); string references with length 0 mean "".

import "permadead/internal/archive"

const (
	// magic4 begins every v4 file.
	magic4 = "PDU4"
	// version4 is the format version stored in the superblock.
	version4 = 4

	superblockSize = 24
	dirEntrySize   = 32
)

// Section kinds, in file order. The directory stores one entry per
// kind; every kind is required.
const (
	secParams    = iota // gob-encoded worldgen.Params
	secArena            // shared string arena
	secCDXHosts         // per-host CDX directory, sorted by hostname
	secCDXData          // columnar CDX rows, per-host blocks
	secCDXAux           // per-host status partitions + query-key tables
	secBulk             // bulk-coverage regions, grouped by host
	secDomains          // registrable domain → host table
	secSnapKeys         // snapshot key directory, sorted by key
	secSnapRows         // snapshot records, grouped by key
	secLatency          // availability-latency overrides, sorted by key
	secPrefilter        // capture-prefilter bloom words
	secSiteDir          // site directory, sorted by hostname
	secSiteBlobs        // encoded sites
	secWikiDir          // article directory, sorted by title
	secWikiBlobs        // encoded articles
	secWikiMeta         // max revision ID + category index
	numSections
)

// archiveSections says which archive.Sections field each of the nine
// archive section kinds holds; SavePaged and newPagedStore both copy
// through it.
var archiveSections = [...]struct {
	kind  int
	field func(*archive.Sections) *[]byte
}{
	{secCDXHosts, func(s *archive.Sections) *[]byte { return &s.Hosts }},
	{secCDXData, func(s *archive.Sections) *[]byte { return &s.Data }},
	{secCDXAux, func(s *archive.Sections) *[]byte { return &s.Aux }},
	{secBulk, func(s *archive.Sections) *[]byte { return &s.Bulk }},
	{secDomains, func(s *archive.Sections) *[]byte { return &s.Domains }},
	{secSnapKeys, func(s *archive.Sections) *[]byte { return &s.SnapKeys }},
	{secSnapRows, func(s *archive.Sections) *[]byte { return &s.SnapRows }},
	{secLatency, func(s *archive.Sections) *[]byte { return &s.Latency }},
	{secPrefilter, func(s *archive.Sections) *[]byte { return &s.Prefilter }},
}

// sectionNames are the human-readable names error messages use.
var sectionNames = [numSections]string{
	"params", "arena", "cdxhosts", "cdxdata", "cdxaux", "bulk",
	"domains", "snapkeys", "snaprows", "latency", "prefilter",
	"sitedir", "siteblobs", "wikidir", "wikiblobs", "wikimeta",
}

// Fixed record sizes (bytes). Changing any layout is a format-version
// bump, not a silent re-interpretation.
const (
	siteDirRecSize = 24
	wikiDirRecSize = 24

	// Within one siteblobs record: the fixed header, then a u32 count
	// and that many fault windows, then a u32 count and that many pages.
	siteHeaderSize = 56
	faultRecSize   = 36
	pageRecSize    = 56

	// Within one wikiblobs record: a u32 count and that many revisions.
	revRecSize = 32
)
