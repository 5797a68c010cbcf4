package persist

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"permadead/internal/worldgen"
)

// TestGeneratedUniverseBytesPinned is the "same bytes" gate every perf
// and simplicity PR has had to meet, as a test: the Scale(0.05) seed-1
// universe, plain and fully flaky, saved in the paged format, hashes to
// the constants PR 13 and PR 17 recorded (what `worldgen -scale 0.05
// -seed 1 -save f [-flaky 1 -flaky-rate 0.7]` then `sha256sum f`
// print).
//
// The hashes cover the generator (plan, world, page bodies, timeline,
// IABot's edits, captures), the fault planter and the v4 writer. Edit
// them only in a PR whose purpose is to change one of those — a new
// generated field, a recalibrated quota, a format revision — and say
// so in CHANGES.md with the old and new values. A PR that claims to
// change none of them (an optimisation, a refactor) and trips this
// test has changed behaviour: fix the PR, not the constants.
func TestGeneratedUniverseBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		name             string
		flaky, flakyRate float64
		want             string
	}{
		// 0.5 is cmd/worldgen's -flaky-rate default; Params are saved.
		{"plain", 0, 0.5, "4847a48c24fa72a9fff21f66e7e650dae8a16834767a61e50519a76e6769ba45"},
		{"flaky", 1, 0.7, "fd6b7837a1b40fea051fc99e3ff7e1d466701790eef75c4105726ab631750439"},
	} {
		p := worldgen.DefaultParams().Scale(0.05)
		p.Seed = 1
		p.FlakySiteFrac, p.FlakyRate = tc.flaky, tc.flakyRate
		var buf bytes.Buffer
		if err := SavePaged(&buf, FromUniverse(worldgen.Generate(p))); err != nil {
			t.Fatalf("%s: SavePaged: %v", tc.name, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s universe: sha256 = %s, pinned %s", tc.name, got, tc.want)
		}
	}
}
