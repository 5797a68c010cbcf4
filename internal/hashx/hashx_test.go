package hashx

import (
	"hash/fnv"
	"testing"
)

// The inputs and expected values below were produced by the private
// copies of these functions that each package carried before hashx
// existed, so a row failing means that package's deterministic output
// — named in the row — has drifted.
const goldenString = "http://example.simtest/dir/page.html?x=1"

var goldenWord uint64 = 0x0123456789abcdef

func TestGoldenFormerCallSites(t *testing.T) {
	fnv1a := FNV1a(goldenString)
	for _, c := range []struct {
		site      string
		got, want uint64
	}{
		{"archive.hash2 first stream (capture prefilter bits, persisted in v4 files)", fnv1a, 0xf08d300489f0ceae},
		{"archive.hash2 second stream", Mix64(fnv1a), 0xd926666c0750da2b},
		{"archive.digest (Snapshot.Digest, persisted in v4 files)", fnv1a, 0xf08d300489f0ceae},
		{"federation.stableHash (member coverage and jitter draws)", fnv1a, 0xf08d300489f0ceae},
		{"worldgen.stableHash (site seeds, bulk-region seeds, scan offsets)", fnv1a, 0xf08d300489f0ceae},
		{"ablation.hashString (scenario host draws)", fnv1a, 0xf08d300489f0ceae},
		{"softerror.randomString seed (soft-404 probe paths)", fnv1a, 0xf08d300489f0ceae},
		{"archive.mix64 (BulkRegion.PathAt / DayAt)", Mix64(goldenWord), 0x157a3807a48faa9d},
		{"federation.mix64", Mix64(goldenWord), 0x157a3807a48faa9d},
		{"simweb.mix64 (page content, FaultWindow.fires)", Mix64(goldenWord), 0x157a3807a48faa9d},
		{"ablation.hashMix", Mix64(goldenWord), 0x157a3807a48faa9d},
		{"shard.mix64, the bare finalizer (ring points)", Mix64(goldenWord - Golden), 0xb2c058e4ebb5112c},
		{"shingle.mix, the bare finalizer (min-hash sketches)", Mix64(goldenWord - Golden), 0xb2c058e4ebb5112c},
		{"shard.hash64 (ring ownership)", Mix64(fnv1a - Golden), 0xc2bb14c9602f4bb3},
	} {
		if c.got != c.want {
			t.Errorf("%s: got %#x, want %#x", c.site, c.got, c.want)
		}
	}
}

func TestFNV1aMatchesStdlib(t *testing.T) {
	for _, s := range []string{"", "a", goldenString, "s1#63", "\x00\xff"} {
		h := fnv.New64a()
		h.Write([]byte(s))
		if got, want := FNV1a(s), h.Sum64(); got != want {
			t.Errorf("FNV1a(%q) = %#x, hash/fnv says %#x", s, got, want)
		}
	}
}
