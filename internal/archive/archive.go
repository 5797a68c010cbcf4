// Package archive simulates the Internet Archive's Wayback Machine as
// the study interacts with it: a snapshot store, the Wayback
// Availability API (including the lookup latency that IABot's timeout
// interacts with, §4.1), and the CDX index used for prefix/host
// coverage queries (§5.2). It is a data source and imports no world
// package: the captures are taken at generation time by the world's
// crawler (worldgen.Crawler), which stores them with Add.
//
// Each snapshot records the *initial* HTTP status observed when the
// copy was captured — the field IABot's usability policy keys on — and
// the redirect target for 3xx captures, which the §4.2 redirect
// validation cross-examines.
//
// Besides explicit snapshots, a host may carry "bulk coverage"
// regions: deterministic families of successfully archived sibling
// URLs (e.g. the rest of a news site's /archive/ directory). Bulk
// regions answer count queries in O(1) and enumerate lazily, so the
// simulation can model hosts with tens of thousands of archived pages
// (Figure 6's x-axis) without materializing them up front.
//
// An archive is written through maps while it is generated, and read
// through one representation once frozen: the nine byte sections of
// the paged universe file (sections.go), which Freeze builds on the
// heap and Open serves from a mapped file, through the same code.
// Before Freeze only the point reads answer — a URL's captures and its
// lookup latency, which IABot's timeline asks for during generation;
// every whole-archive read (the CDX queries, the host and snapshot
// listings) panics until the sections exist.
package archive

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"permadead/internal/hashx"
	"permadead/internal/simclock"
	"permadead/internal/urlutil"
)

// Snapshot is one archived capture of a URL.
type Snapshot struct {
	// URL is the original URL as captured.
	URL string
	// Day the capture was taken.
	Day simclock.Day
	// InitialStatus is the HTTP status of the first response at
	// capture time, before any redirections (§2.4's definition).
	InitialStatus int
	// FinalStatus is the status after the crawler followed redirects.
	FinalStatus int
	// RedirectTo is the absolute target URL for 3xx captures.
	RedirectTo string
	// Body is the captured final body, truncated to BodyLimit.
	Body string
	// Digest is a hash of the captured body, used to compare copies
	// without retaining full bodies.
	Digest uint64
}

// IsRedirect reports whether the capture observed a redirection.
func (s Snapshot) IsRedirect() bool {
	return s.InitialStatus >= 300 && s.InitialStatus < 400
}

// WaybackURL renders the snapshot's replay URL in Wayback Machine
// format.
func (s Snapshot) WaybackURL() string {
	return fmt.Sprintf("https://web.archive.org/web/%s/%s", s.Day.Timestamp(), s.URL)
}

// BodyLimit bounds how much of a captured body each snapshot retains.
const BodyLimit = 4 << 10

// BulkRegion is a family of successfully archived URLs under one
// directory, represented by count rather than individual snapshots.
// Paths enumerate deterministically from the seed.
type BulkRegion struct {
	// Host the region belongs to.
	Host string
	// DirPrefix is the directory ("/news/2014/") the URLs live under.
	DirPrefix string
	// Count is how many distinct archived URLs the region contains.
	Count int
	// FirstDay/LastDay bound the capture days; enumerated entries are
	// spread uniformly across the range.
	FirstDay, LastDay simclock.Day
	// Seed drives deterministic path generation.
	Seed uint64
}

// PathAt returns the i-th URL path in the region (0 <= i < Count).
func (r BulkRegion) PathAt(i int) string {
	var name [bulkNameCap]byte
	return r.DirPrefix + string(r.appendName(name[:0], i))
}

// bulkNameCap holds any generated file name: a 64-bit index has at
// most 19 digits.
const bulkNameCap = len("item-") + 19 + len("-ffff.html")

// appendName appends the i-th entry's file name — what
// fmt.Sprintf("item-%06d-%04x.html", i, v&0xffff) prints — without
// fmt: enumeration materializes one name per synthetic row.
func (r BulkRegion) appendName(dst []byte, i int) []byte {
	v := r.tag(i)
	dst = append(dst, "item-"...)
	for pad := 100000; pad > i && pad > 1; pad /= 10 {
		dst = append(dst, '0')
	}
	dst = strconv.AppendInt(dst, int64(i), 10)
	const hex = "0123456789abcdef"
	dst = append(dst, '-', hex[v>>12], hex[v>>8&15], hex[v>>4&15], hex[v&15])
	return append(dst, ".html"...)
}

// tag is the i-th name's hash suffix, v&0xffff above.
func (r BulkRegion) tag(i int) uint64 { return hashx.Mix64(r.Seed+uint64(i)*hashx.Golden) & 0xffff }

// DayAt returns the capture day of the i-th entry.
func (r BulkRegion) DayAt(i int) simclock.Day {
	if r.Count <= 1 || r.LastDay <= r.FirstDay {
		return r.FirstDay
	}
	span := int(r.LastDay - r.FirstDay)
	return r.FirstDay.Add(int(hashx.Mix64(r.Seed^uint64(i)) % uint64(span+1)))
}

// Archive is the snapshot store.
//
// Concurrency contract: before Freeze, point reads are safe
// concurrently with writes (captures take the write lock, point reads
// the read lock) and whole-archive reads panic. Once the world is fully
// generated the owner calls Freeze, after which the store is immutable
// — reads skip the lock entirely (no shared cache-line traffic under a
// 32-way analysis fan-out) and any further write panics. Freeze is
// idempotent.
type Archive struct {
	mu     sync.RWMutex
	frozen atomic.Bool
	// The mutable store, nil once frozen. byKey maps
	// urlutil.SchemeAgnosticKey(url) → snapshots sorted by Day; byHost
	// maps hostname → the capture records Freeze builds the CDX index
	// from; latency holds the Availability API's overrides in
	// milliseconds, keyed like byKey.
	byKey   map[string][]Snapshot
	byHost  map[string]*hostIndex
	latency map[string]int

	// The frozen store: the readers over the sections (sections.go)
	// that Freeze builds or Open is given.
	cdx   *cdxIndex
	snaps *snapIndex
	// prefilter is the capture prefilter over the snapshot keys (see
	// prefilter.go); prefilterOn gates its use.
	prefilter   *capturePrefilter
	prefilterOn atomic.Bool
	// opened marks an archive Open serves from a file's sections.
	opened bool
}

type hostIndex struct {
	// entries are explicit captures: parallel to snapshots but storing
	// only what CDX queries need.
	entries []cdxRecord
	bulk    []BulkRegion
}

type cdxRecord struct {
	pathQuery     string
	day           simclock.Day
	initialStatus int
}

// New returns an empty archive.
func New() *Archive {
	return &Archive{
		byKey:   make(map[string][]Snapshot),
		byHost:  make(map[string]*hostIndex),
		latency: make(map[string]int),
	}
}

// Freeze marks the store immutable: subsequent writes panic and reads
// no longer take the lock. It is also the single build point of the
// archive's sections (sections.go) — the CDX index, the snapshot keys
// and rows, the latency overrides and the capture prefilter — which
// every read uses from then on, in place of the maps it drops. Call it
// once world generation (and any post-run state planting) is complete,
// before fanning analysis out across goroutines. Idempotent.
func (a *Archive) Freeze() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.frozen.Load() {
		return
	}
	b := &builder{arena: []byte{0}, idx: make(map[string]int)}
	byName, urls := b.addCDX(a.byHost)
	b.addSnapshots(a.byKey, a.latency)
	if err := a.open(b.sections()); err != nil {
		panic("archive: Freeze built sections Open rejects: " + err.Error())
	}
	a.cdx.byName, a.cdx.urls = byName, urls
	a.byKey, a.byHost, a.latency = nil, nil, nil
	a.frozen.Store(true)
}

func (a *Archive) checkWritable(op string) {
	if a.frozen.Load() {
		panic("archive: " + op + " after Freeze")
	}
}

// checkFrozen guards every whole-archive read: those answer from the
// sections alone, which exist once Freeze has run.
func (a *Archive) checkFrozen(op string) {
	if !a.frozen.Load() {
		panic("archive: " + op + " before Freeze")
	}
}

// Add inserts a snapshot, keeping per-URL snapshots sorted by day.
func (a *Archive) Add(s Snapshot) {
	key := urlutil.SchemeAgnosticKey(s.URL)
	host := urlutil.Hostname(s.URL)
	a.mu.Lock()
	defer a.mu.Unlock()
	a.checkWritable("Add")
	snaps := a.byKey[key]
	i := sort.Search(len(snaps), func(i int) bool { return snaps[i].Day > s.Day })
	snaps = append(snaps, Snapshot{})
	copy(snaps[i+1:], snaps[i:])
	snaps[i] = s
	a.byKey[key] = snaps

	hi := a.byHost[host]
	if hi == nil {
		hi = &hostIndex{}
		a.byHost[host] = hi
	}
	hi.entries = append(hi.entries, cdxRecord{
		pathQuery:     pathQueryOf(s.URL),
		day:           s.Day,
		initialStatus: s.InitialStatus,
	})
}

// AddBulkCoverage attaches a bulk region to its host. The host must
// not contain '/', as no host Add derives does: the typo probe's
// candidate sets rely on it (candidateSet).
func (a *Archive) AddBulkCoverage(r BulkRegion) {
	if r.Count <= 0 {
		return
	}
	if strings.Contains(r.Host, "/") {
		panic("archive: AddBulkCoverage host " + r.Host + " contains '/'")
	}
	r.Host = strings.ToLower(r.Host)
	if !strings.HasPrefix(r.DirPrefix, "/") {
		r.DirPrefix = "/" + r.DirPrefix
	}
	if !strings.HasSuffix(r.DirPrefix, "/") {
		r.DirPrefix += "/"
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.checkWritable("AddBulkCoverage")
	hi := a.byHost[r.Host]
	if hi == nil {
		hi = &hostIndex{}
		a.byHost[r.Host] = hi
	}
	hi.bulk = append(hi.bulk, r)
}

// rlock reports whether the archive is frozen, when point reads go to
// the sections lock-free; otherwise it takes the read lock for a read
// of the maps and returns the matching unlock. A reader that waited on
// the lock while Freeze ran finds the archive frozen and the maps gone,
// so every point read funnels through it.
func (a *Archive) rlock() (frozen bool, unlock func()) {
	if !a.frozen.Load() {
		a.mu.RLock()
		if !a.frozen.Load() {
			return false, a.mu.RUnlock
		}
		a.mu.RUnlock()
	}
	return true, nil
}

// captures returns url's captures (any scheme/www variant).
func (a *Archive) captures(url string) captures {
	key := urlutil.SchemeAgnosticKey(url)
	if frozen, unlock := a.rlock(); !frozen {
		defer unlock()
		snaps := a.byKey[key]
		return captures{snaps: snaps, n: len(snaps)}
	}
	// The compact prefilter settles the dominant "no captures at all"
	// case without a search.
	if !a.mightHaveCapturesKey(key) {
		return captures{}
	}
	return a.snaps.find(key)
}

// Snapshots returns all captures of url (any scheme/www variant),
// oldest first. The returned slice must not be modified.
func (a *Archive) Snapshots(url string) []Snapshot {
	c := a.captures(url)
	return c.slice(0, c.n)
}

// SnapshotsBetween returns captures of url with from <= Day < to.
func (a *Archive) SnapshotsBetween(url string, from, to simclock.Day) []Snapshot {
	c := a.captures(url)
	return c.slice(c.search(from), c.search(to))
}

// First returns the earliest capture of url.
func (a *Archive) First(url string) (Snapshot, bool) {
	c := a.captures(url)
	if c.n == 0 {
		return Snapshot{}, false
	}
	return c.at(0), true
}

// FirstAfter returns the earliest capture of url on or after day.
func (a *Archive) FirstAfter(url string, day simclock.Day) (Snapshot, bool) {
	c := a.captures(url)
	i := c.search(day)
	if i == c.n {
		return Snapshot{}, false
	}
	return c.at(i), true
}

// Closest returns the capture of url closest in time to want among
// those accepted by the filter (nil filter accepts all) — the Wayback
// Availability API's contract.
func (a *Archive) Closest(url string, want simclock.Day, accept func(Snapshot) bool) (Snapshot, bool) {
	c := a.captures(url)
	best := -1
	bestDist := 0
	for i := 0; i < c.n; i++ {
		if accept != nil && !accept(c.at(i)) {
			continue
		}
		d := c.day(i).Sub(want)
		if d < 0 {
			d = -d
		}
		if best < 0 || d < bestDist {
			best, bestDist = i, d
		}
	}
	if best < 0 {
		return Snapshot{}, false
	}
	return c.at(best), true
}

// TotalSnapshots returns the number of explicit snapshots stored.
func (a *Archive) TotalSnapshots() int {
	a.checkFrozen("TotalSnapshots")
	return a.snaps.numRows()
}

// Hosts returns every hostname with explicit or bulk coverage, sorted.
func (a *Archive) Hosts() []string {
	a.checkFrozen("Hosts")
	return a.cdx.hosts()
}

func pathQueryOf(rawURL string) string {
	rest := rawURL
	if i := strings.Index(rest, "://"); i >= 0 {
		rest = rest[i+3:]
	}
	if i := strings.IndexByte(rest, '#'); i >= 0 {
		rest = rest[:i]
	}
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		return rest[i:]
	}
	return "/"
}

// EachSnapshot calls fn for every explicit snapshot, in URL key order,
// oldest-first within a key.
func (a *Archive) EachSnapshot(fn func(Snapshot)) {
	a.checkFrozen("EachSnapshot")
	for i := 0; i < a.snaps.numRows(); i++ {
		fn(a.snaps.at(i))
	}
}

// EachBulkRegion calls fn for every bulk-coverage region.
func (a *Archive) EachBulkRegion(fn func(BulkRegion)) {
	a.checkFrozen("EachBulkRegion")
	a.cdx.eachBulk(fn)
}
