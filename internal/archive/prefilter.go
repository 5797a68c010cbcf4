package archive

import (
	"sync/atomic"

	"permadead/internal/hashx"
	"permadead/internal/urlutil"
)

// Capture prefilter. The related-work measurements ("How Much of the
// Web Is Archived?") say the dominant query outcome against a real
// archive is "no captures at all" — so the cheapest useful answer an
// archive can give is a fast, compact *definitely not here*. Freeze
// builds a Bloom filter over every scheme-agnostic snapshot key; a
// negative probe then proves the URL was never explicitly captured
// without touching the byKey map (which at production scale is the
// paged/mmap'd structure ROADMAP item 3 wants to keep cold), and a
// positive probe falls through to the real lookup.
//
// The filter covers explicit snapshots only. Bulk-coverage regions are
// a CDX-side construct — Snapshots/First/Closest never consult them —
// so byKey's key set is exactly the population the no-captures verdict
// (§5.1 NeverArchived) is defined over.

// prefilterBitsPerKey sizes the filter: ~10 bits/key with 4 hash
// probes gives a false-positive rate around 1–2%, which only costs a
// wasted fallthrough to the map — never a wrong answer.
const (
	prefilterBitsPerKey = 10
	prefilterHashes     = 4
)

// capturePrefilter is a split Bloom filter: k probe positions derived
// from one 64-bit hash (Kirsch–Mitzenmacher double hashing).
type capturePrefilter struct {
	bits []uint64
	mask uint64 // len(bits)*64 - 1; size is a power of two
	keys int

	checks, definiteNo atomic.Int64
}

// newCapturePrefilter builds a filter sized for n keys.
func newCapturePrefilter(n int) *capturePrefilter {
	words := 1
	for words*64 < n*prefilterBitsPerKey {
		words *= 2
	}
	return &capturePrefilter{
		bits: make([]uint64, words),
		mask: uint64(words)*64 - 1,
	}
}

// hash2 derives the two independent hash values double hashing mixes.
func hash2(s string) (uint64, uint64) {
	// FNV-1a, then a splitmix64 step for the second stream.
	h := hashx.FNV1a(s)
	return h, hashx.Mix64(h)
}

func (f *capturePrefilter) add(key string) {
	h1, h2 := hash2(key)
	for i := 0; i < prefilterHashes; i++ {
		pos := (h1 + uint64(i)*h2) & f.mask
		f.bits[pos>>6] |= 1 << (pos & 63)
	}
	f.keys++
}

// contains reports whether key may be present. False is definitive.
func (f *capturePrefilter) contains(key string) bool {
	h1, h2 := hash2(key)
	for i := 0; i < prefilterHashes; i++ {
		pos := (h1 + uint64(i)*h2) & f.mask
		if f.bits[pos>>6]&(1<<(pos&63)) == 0 {
			return false
		}
	}
	return true
}

// buildPrefilterLocked constructs the freeze-time filter over every
// snapshot key. Caller holds the write lock.
func (a *Archive) buildPrefilterLocked() {
	f := newCapturePrefilter(len(a.byKey))
	for key := range a.byKey {
		f.add(key)
	}
	a.prefilter = f
	a.prefilterOn.Store(true)
}

// SetPrefilterEnabled toggles use of the freeze-time capture
// prefilter (on by default once frozen). Disabling it routes every
// lookup to the byKey map again — the knob exists so the serving
// layer can benchmark the filter's contribution honestly.
func (a *Archive) SetPrefilterEnabled(on bool) { a.prefilterOn.Store(on) }

// mightHaveCapturesKey answers the filter for a pre-computed key.
// True when the archive is unfrozen, the filter is disabled, or the
// key may be present; false proves no explicit capture exists.
func (a *Archive) mightHaveCapturesKey(key string) bool {
	f := a.prefilter
	if f == nil || !a.prefilterOn.Load() {
		return true
	}
	f.checks.Add(1)
	if f.contains(key) {
		return true
	}
	f.definiteNo.Add(1)
	return false
}

// MightHaveCaptures reports whether the archive may hold explicit
// captures of url (any scheme/www variant). A false answer is
// definitive — Snapshots(url) would return nothing — and is computed
// from the compact freeze-time Bloom filter alone. Before Freeze (or
// with the prefilter disabled) it conservatively answers true.
func (a *Archive) MightHaveCaptures(url string) bool {
	return a.mightHaveCapturesKey(urlutil.SchemeAgnosticKey(url))
}

// PrefilterStats is a point-in-time view of the capture prefilter.
type PrefilterStats struct {
	// Keys and Bits describe the built filter (zero before Freeze).
	Keys int `json:"keys"`
	Bits int `json:"bits"`
	// Enabled reports whether probes consult the filter.
	Enabled bool `json:"enabled"`
	// Checks counts probes; DefiniteNo counts the probes the filter
	// answered "definitely never captured" without a map lookup.
	Checks     int64 `json:"checks"`
	DefiniteNo int64 `json:"definite_no"`
}

// PrefilterStats returns the capture prefilter's counters.
func (a *Archive) PrefilterStats() PrefilterStats {
	f := a.prefilter
	if f == nil {
		return PrefilterStats{}
	}
	return PrefilterStats{
		Keys:       f.keys,
		Bits:       len(f.bits) * 64,
		Enabled:    a.prefilterOn.Load(),
		Checks:     f.checks.Load(),
		DefiniteNo: f.definiteNo.Load(),
	}
}
