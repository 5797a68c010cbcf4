package archive

import (
	"sort"
	"time"

	"permadead/internal/simclock"
)

// Store is the read-side backing a frozen Archive can serve from
// instead of its in-memory maps — the seam the paged on-disk universe
// format (internal/persist format v4, DESIGN.md §3.6) plugs into. A
// Store answers exactly the queries the freeze-time indexes answer
// (index.go), with the same ordering contracts:
//
//   - CDXList emits explicit rows in capture-insertion order, then
//     bulk-region rows;
//   - Snapshots returns per-key captures oldest-first;
//   - FindQueryPermutation scans candidates in insertion order.
//
// Implementations must be safe for concurrent readers; a store-backed
// Archive is born frozen, so every read is lock-free and every write
// panics, exactly like a Freeze()'d in-memory archive.
type Store interface {
	// Snapshots returns all captures under a scheme-agnostic URL key,
	// oldest first (nil when the key has none). Callers must not
	// modify the result.
	Snapshots(key string) []Snapshot
	// TotalSnapshots is the number of explicit snapshots stored.
	TotalSnapshots() int
	// Hosts returns every hostname with explicit or bulk coverage,
	// sorted.
	Hosts() []string

	// CDXCount/CDXList/CountSelf/FindQueryPermutation mirror the
	// frozen-index queries; host is already lowercased.
	CDXCount(host string, q CDXQuery) int
	CDXList(host string, q CDXQuery, limit int) []CDXEntry
	CountSelf(host, pathQuery string) int
	FindQueryPermutation(host, want, self string) (string, bool)
	// DomainHosts returns the sorted hostnames under a registrable
	// domain.
	DomainHosts(domain string) []string

	// LookupLatencyMS returns the availability-lookup latency override
	// for a key, if one exists.
	LookupLatencyMS(key string) (int, bool)

	// PrefilterBits exposes the persisted capture prefilter: a
	// power-of-two-sized word array (see prefilter.go) over every
	// snapshot key, plus the key count. nil disables the prefilter.
	PrefilterBits() (words []uint64, keys int)

	// Bulk enumeration, used by re-saves and coverage analyses.
	EachSnapshot(fn func(Snapshot))
	EachBulkRegion(fn func(BulkRegion))
	EachLookupLatency(fn func(key string, ms int))
}

// NewFromStore builds a frozen Archive serving every read from st.
// The archive is immutable from birth: writes panic, reads never lock.
func NewFromStore(st Store) *Archive {
	a := New()
	a.store = st
	if words, keys := st.PrefilterBits(); len(words) > 0 {
		a.prefilter = &capturePrefilter{
			bits: words,
			mask: uint64(len(words))*64 - 1,
			keys: keys,
		}
		a.prefilterOn.Store(true)
	}
	a.frozen.Store(true)
	return a
}

// StoreBacked reports whether the archive serves reads from a Store
// (a paged on-disk universe) rather than in-memory maps.
func (a *Archive) StoreBacked() bool { return a.store != nil }

// --- export hooks for persisting an in-memory archive ---

// CDXRow is one host-index row as persisted: the row's path?query
// part, capture day, and initial status. Rows are exported in
// capture-insertion order, the order CDXList reproduces.
type CDXRow struct {
	PathQuery     string
	Day           simclock.Day
	InitialStatus int
}

// ExportCDX calls fn once per host, in sorted hostname order, with the
// host's explicit index rows in capture-insertion order and its bulk
// regions in attachment order. It is the persistence export of the CDX
// side of the archive; store-backed archives cannot export (copy the
// paged file instead).
func (a *Archive) ExportCDX(fn func(host string, rows []CDXRow, bulk []BulkRegion)) {
	if a.store != nil {
		panic("archive: ExportCDX on a store-backed archive")
	}
	defer a.rlock()()
	hosts := make([]string, 0, len(a.byHost))
	for h := range a.byHost {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	for _, h := range hosts {
		hi := a.byHost[h]
		rows := make([]CDXRow, len(hi.entries))
		for i, e := range hi.entries {
			rows[i] = CDXRow{PathQuery: e.pathQuery, Day: e.day, InitialStatus: e.initialStatus}
		}
		fn(h, rows, hi.bulk)
	}
}

// EachSnapshotsByKey calls fn once per scheme-agnostic URL key, in
// sorted key order, with the key's snapshots oldest-first. It is the
// persistence export of the snapshot store.
func (a *Archive) EachSnapshotsByKey(fn func(key string, snaps []Snapshot)) {
	if a.store != nil {
		panic("archive: EachSnapshotsByKey on a store-backed archive")
	}
	defer a.rlock()()
	keys := make([]string, 0, len(a.byKey))
	for k := range a.byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fn(k, a.byKey[k])
	}
}

// PrefilterBits exposes the built capture prefilter's word array and
// key count for persistence (nil before Freeze).
func (a *Archive) PrefilterBits() (words []uint64, keys int) {
	f := a.prefilter
	if f == nil {
		return nil, 0
	}
	return f.bits, f.keys
}

// BulkMatchCount reports how many of a bulk region's entries match the
// query — exported so on-disk Store implementations share the exact
// bulk arithmetic the in-memory paths use.
func BulkMatchCount(r BulkRegion, q CDXQuery) int { return bulkMatchCount(r, q) }

// AppendBulkEntries materializes a bulk region's matching rows onto
// out, up to limit — the enumeration counterpart of BulkMatchCount.
func AppendBulkEntries(out []CDXEntry, r BulkRegion, q CDXQuery, limit int) []CDXEntry {
	return appendBulk(out, r, q, limit)
}

// --- store-backed dispatch -----------------------------------------

// storeLookupLatency resolves a latency override through the store.
func (a *Archive) storeLookupLatency(key string) time.Duration {
	if ms, ok := a.store.LookupLatencyMS(key); ok {
		return time.Duration(ms) * time.Millisecond
	}
	return DefaultLookupLatency
}
