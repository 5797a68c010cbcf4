package archive

import (
	"fmt"
	"sort"

	"permadead/internal/simclock"
)

// The snapshot store as stored (DESIGN §3.6), beside the CDX index:
//
//   - snapkeys: per scheme-agnostic URL key, in key order, a 16-byte
//     record: the key, the key's first row and its row count;
//   - snaprows: the captures, grouped by key and oldest first within a
//     key, 40 bytes each: URL, day (i32), initial and final status (u16
//     each), redirect target, body, digest (u64);
//   - latency: per key with an availability-latency override, in key
//     order, 16 bytes: the key, the milliseconds (i32), a zero pad.
//
// The reads are written once, below, over those bytes; Freeze's heap
// sections and a paged file's mapped ones answer through them alike.

// Fixed record sizes of the snapkeys, snaprows and latency sections.
const (
	snapKeyRecSize = 16
	snapRowRecSize = 40
	latencyRecSize = 16
)

// snapIndex serves the snapshot and latency reads from their sections.
type snapIndex struct {
	keys, rows, lat []byte
	arena           string
}

func (x *snapIndex) str(b []byte, off int) string {
	return arenaStr(x.arena, u32(b, off), u32(b, off+4))
}

func (x *snapIndex) numRows() int { return len(x.rows) / snapRowRecSize }

// verify checks that every snapkeys record's rows lie inside snaprows.
func (x *snapIndex) verify() error {
	for off := 0; off < len(x.keys); off += snapKeyRecSize {
		if start, n := u32(x.keys, off+8), u32(x.keys, off+12); start+n > x.numRows() {
			return fmt.Errorf("section %q: record %d (rows %d+%d) outside the %d snapshot rows",
				"snapkeys", off/snapKeyRecSize, start, n, x.numRows())
		}
	}
	return nil
}

// find returns key's captures: none when the key is absent or its
// record's rows overrun snaprows.
func (x *snapIndex) find(key string) captures {
	start, n := lookup(x.arena, x.keys, 0, len(x.keys)/snapKeyRecSize, key, x.numRows())
	return captures{x: x, start: start, n: n}
}

// at decodes row i.
func (x *snapIndex) at(i int) Snapshot {
	r := x.rows[i*snapRowRecSize : (i+1)*snapRowRecSize]
	return Snapshot{
		URL:           x.str(r, 0),
		Day:           simclock.Day(int32(le.Uint32(r[8:]))),
		InitialStatus: int(le.Uint16(r[12:])),
		FinalStatus:   int(le.Uint16(r[14:])),
		RedirectTo:    x.str(r, 16),
		Body:          x.str(r, 24),
		Digest:        le.Uint64(r[32:]),
	}
}

func (x *snapIndex) day(i int) simclock.Day {
	return simclock.Day(int32(le.Uint32(x.rows[i*snapRowRecSize+8:])))
}

// latency returns key's latency override in milliseconds.
func (x *snapIndex) latency(key string) (int, bool) {
	i, ok := search(x.arena, x.lat, 0, len(x.lat)/latencyRecSize, key)
	if !ok {
		return 0, false
	}
	return int(int32(le.Uint32(x.lat[i*latencyRecSize+8:]))), true
}

// captures is one URL key's captures, oldest first: the mutable
// archive's slice (x nil), or a run of snaprows rows.
type captures struct {
	snaps    []Snapshot
	x        *snapIndex
	start, n int
}

func (c captures) at(i int) Snapshot {
	if c.x == nil {
		return c.snaps[i]
	}
	return c.x.at(c.start + i)
}

func (c captures) day(i int) simclock.Day {
	if c.x == nil {
		return c.snaps[i].Day
	}
	return c.x.day(c.start + i)
}

// search returns the first capture taken on or after day.
func (c captures) search(day simclock.Day) int {
	return sort.Search(c.n, func(i int) bool { return c.day(i) >= day })
}

// slice returns captures [lo, hi): the mutable archive's own slice, or
// the rows decoded; nil when the range is empty.
func (c captures) slice(lo, hi int) []Snapshot {
	if lo >= hi {
		return nil
	}
	if c.x == nil {
		return c.snaps[lo:hi]
	}
	out := make([]Snapshot, hi-lo)
	for i := range out {
		out[i] = c.x.at(c.start + lo + i)
	}
	return out
}

// addSnapshots appends the snapkeys, snaprows, latency and prefilter
// sections, interning strings in key order — each key, then its rows'
// URLs, redirect targets and bodies — and then the latency keys.
func (b *builder) addSnapshots(byKey map[string][]Snapshot, latency map[string]int) {
	keys := sortedKeys(byKey)
	for _, key := range keys {
		snaps := byKey[key]
		b.snapKeys = app32(b.ref(b.snapKeys, key), len(b.snapRows)/snapRowRecSize, len(snaps))
		for _, s := range snaps {
			b.snapRows = app32(b.ref(b.snapRows, s.URL), int(s.Day))
			b.snapRows = le.AppendUint16(le.AppendUint16(b.snapRows, uint16(s.InitialStatus)), uint16(s.FinalStatus))
			b.snapRows = b.ref(b.ref(b.snapRows, s.RedirectTo), s.Body)
			b.snapRows = le.AppendUint64(b.snapRows, s.Digest)
		}
	}
	for _, key := range sortedKeys(latency) {
		b.latency = app32(b.ref(b.latency, key), latency[key], 0)
	}
	b.prefilter = buildPrefilter(keys)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
