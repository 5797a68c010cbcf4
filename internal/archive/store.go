package archive

import (
	"sort"
	"time"
)

// Store is the read-side backing a frozen Archive can serve from
// instead of its in-memory maps — the seam the paged on-disk universe
// format (internal/persist format v4, DESIGN.md §3.6) plugs into.
// Snapshots returns per-key captures oldest-first, as the in-memory
// map does; CDX queries run the one set of index queries (index.go)
// over the store's CDX sections.
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
	// CDXIndex is the store's CDX index (OpenCDX over its sections),
	// which also answers Hosts and EachBulkRegion.
	CDXIndex() *CDXIndex

	// LookupLatencyMS returns the availability-lookup latency override
	// for a key, if one exists.
	LookupLatencyMS(key string) (int, bool)

	// PrefilterBits exposes the persisted capture prefilter: a
	// power-of-two-sized word array (see prefilter.go) over every
	// snapshot key, plus the key count. nil disables the prefilter.
	PrefilterBits() (words []uint64, keys int)

	// Bulk enumeration, used by re-saves and coverage analyses.
	EachSnapshot(fn func(Snapshot))
	EachLookupLatency(fn func(key string, ms int))
}

// NewFromStore builds a frozen Archive serving every read from st.
// The archive is immutable from birth: writes panic, reads never lock.
func NewFromStore(st Store) *Archive {
	a := New()
	a.store = st
	a.cdx = st.CDXIndex()
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

// --- store-backed dispatch -----------------------------------------

// storeLookupLatency resolves a latency override through the store.
func (a *Archive) storeLookupLatency(key string) time.Duration {
	if ms, ok := a.store.LookupLatencyMS(key); ok {
		return time.Duration(ms) * time.Millisecond
	}
	return DefaultLookupLatency
}
