package archive

import (
	"fmt"
	"sync/atomic"

	"permadead/internal/hashx"
	"permadead/internal/urlutil"
)

// Capture prefilter. The related-work measurements ("How Much of the
// Web Is Archived?") say the dominant query outcome against a real
// archive is "no captures at all" — so the cheapest useful answer an
// archive can give is a fast, compact *definitely not here*. Freeze
// builds a Bloom filter over every scheme-agnostic snapshot key, as the
// prefilter section: u64 key count, u64 word count, the little-endian
// 64-bit words. A negative probe then proves the URL was never
// explicitly captured without searching the snapkeys section, and a
// positive probe falls through to the search.
//
// The filter covers explicit snapshots only. Bulk-coverage regions are
// a CDX-side construct — Snapshots/First/Closest never consult them —
// so the snapshot keys are exactly the population the no-captures
// verdict (§5.1 NeverArchived) is defined over.

// prefilterBitsPerKey sizes the filter: ~10 bits/key with 4 hash
// probes gives a false-positive rate around 1–2%, which only costs a
// wasted fallthrough to the search — never a wrong answer.
const (
	prefilterBitsPerKey = 10
	prefilterHashes     = 4
)

// capturePrefilter is a split Bloom filter over the prefilter section's
// words: k probe positions derived from one 64-bit hash
// (Kirsch–Mitzenmacher double hashing). Bit pos of the little-endian
// words is bit pos&7 of byte pos>>3.
type capturePrefilter struct {
	bits []byte
	mask uint64 // len(bits)*8 - 1; Freeze sizes it to a power of two
	keys int

	checks, definiteNo atomic.Int64
}

// openPrefilter reads a prefilter section. A section of no words is no
// filter: its mask would be ^0, and a probe would read past the bits.
func openPrefilter(pf []byte) (*capturePrefilter, error) {
	if len(pf) < 16 {
		return nil, fmt.Errorf("section %q: too short (%d bytes)", "prefilter", len(pf))
	}
	words := (len(pf) - 16) / 8
	if len(pf)%8 != 0 || le.Uint64(pf[8:]) != uint64(words) {
		return nil, fmt.Errorf("section %q: declares %d words but holds %d bytes", "prefilter", le.Uint64(pf[8:]), len(pf))
	}
	if words == 0 {
		return nil, nil
	}
	return &capturePrefilter{bits: pf[16:], mask: uint64(words)*64 - 1, keys: int(le.Uint64(pf))}, nil
}

// buildPrefilter returns the prefilter section over keys.
func buildPrefilter(keys []string) []byte {
	words := 1
	for words*64 < len(keys)*prefilterBitsPerKey {
		words *= 2
	}
	pf := le.AppendUint64(le.AppendUint64(nil, uint64(len(keys))), uint64(words))
	pf = append(pf, make([]byte, 8*words)...)
	f, _ := openPrefilter(pf)
	for _, key := range keys {
		f.add(key)
	}
	return pf
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
		f.bits[pos>>3] |= 1 << (pos & 7)
	}
}

// contains reports whether key may be present. False is definitive.
func (f *capturePrefilter) contains(key string) bool {
	h1, h2 := hash2(key)
	for i := 0; i < prefilterHashes; i++ {
		pos := (h1 + uint64(i)*h2) & f.mask
		if f.bits[pos>>3]&(1<<(pos&7)) == 0 {
			return false
		}
	}
	return true
}

// SetPrefilterEnabled toggles use of the freeze-time capture
// prefilter (on by default once frozen). Disabling it routes every
// lookup to the snapkeys search again — the knob exists so the serving
// layer can benchmark the filter's contribution honestly.
func (a *Archive) SetPrefilterEnabled(on bool) { a.prefilterOn.Store(on) }

// mightHaveCapturesKey answers the filter for a pre-computed key.
// True when the archive is unfrozen, the filter is disabled, or the
// key may be present; false proves no explicit capture exists.
func (a *Archive) mightHaveCapturesKey(key string) bool {
	if !a.frozen.Load() {
		return true
	}
	f := a.prefilter // set before frozen, so read after it
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
	// answered "definitely never captured" without a key search.
	Checks     int64 `json:"checks"`
	DefiniteNo int64 `json:"definite_no"`
}

// PrefilterStats returns the capture prefilter's counters.
func (a *Archive) PrefilterStats() PrefilterStats {
	if !a.frozen.Load() || a.prefilter == nil {
		return PrefilterStats{}
	}
	f := a.prefilter
	return PrefilterStats{
		Keys:       f.keys,
		Bits:       len(f.bits) * 8,
		Enabled:    a.prefilterOn.Load(),
		Checks:     f.checks.Load(),
		DefiniteNo: f.definiteNo.Load(),
	}
}
