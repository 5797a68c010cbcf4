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
//
// The Params come from parsing those flags through Source, as worldgen
// does, so the plain universe carries Source's -flaky-rate default
// (0.5, shared by every binary) in its saved Params.
func TestGeneratedUniverseBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		name  string
		flags []string
		want  string
	}{
		{"plain", nil, "4847a48c24fa72a9fff21f66e7e650dae8a16834767a61e50519a76e6769ba45"},
		{"flaky", []string{"-flaky", "1", "-flaky-rate", "0.7"}, "fd6b7837a1b40fea051fc99e3ff7e1d466701790eef75c4105726ab631750439"},
	} {
		src := parseSource(t, append([]string{"-scale", "0.05", "-seed", "1"}, tc.flags...)...)
		var buf bytes.Buffer
		if err := SavePaged(&buf, FromUniverse(worldgen.Generate(src.Params()))); err != nil {
			t.Fatalf("%s: SavePaged: %v", tc.name, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s universe: sha256 = %s, pinned %s", tc.name, got, tc.want)
		}
	}
}
