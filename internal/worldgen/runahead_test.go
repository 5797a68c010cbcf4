package worldgen_test

import (
	"bytes"
	"testing"

	"permadead/internal/persist"
	"permadead/internal/worldgen"
)

// generateCounted generates a universe and returns the run-ahead
// stage's counts over that one generation.
func generateCounted(p worldgen.Params) (u *worldgen.Universe, fetches, hits, misses int64) {
	f0, h0, m0 := worldgen.StageCounts()
	u = worldgen.Generate(p)
	f1, h1, m1 := worldgen.StageCounts()
	return u, f1 - f0, h1 - h0, m1 - m0
}

// TestRunAheadWastesNothing: the stage predicts every check the bot
// makes and makes no other, so each of its GETs answers exactly one
// check and no check falls back to an inline GET.
func TestRunAheadWastesNothing(t *testing.T) {
	for _, c := range worldgen.RunAheadParams() {
		u, fetches, hits, misses := generateCounted(c.Params)
		checked := int64(u.Bot.Stats().LinksChecked)
		t.Logf("%s: %d stage GETs, %d hits, %d misses, %d checks", c.Name, fetches, hits, misses, checked)
		if misses != 0 || fetches != hits || hits != checked {
			t.Errorf("%s: stage made %d GETs, answered %d checks from its slots and missed %d; the bot made %d checks",
				c.Name, fetches, hits, misses, checked)
		}
	}
}

// TestRunAheadMissFallsBack: with every slot emptied, every check
// misses and is made inline, and the universe saved is byte for byte
// the one a run answered from the slots saves.
func TestRunAheadMissFallsBack(t *testing.T) {
	save := func(u *worldgen.Universe) []byte {
		var buf bytes.Buffer
		if err := persist.SavePaged(&buf, persist.FromUniverse(u)); err != nil {
			t.Fatalf("SavePaged: %v", err)
		}
		return buf.Bytes()
	}
	for _, c := range worldgen.RunAheadParams() {
		want := save(worldgen.Generate(c.Params))

		worldgen.SetDropSlots(true)
		u, _, hits, misses := generateCounted(c.Params)
		worldgen.SetDropSlots(false)
		if checked := int64(u.Bot.Stats().LinksChecked); hits != 0 || misses != checked {
			t.Errorf("%s with slots dropped: %d hits, %d misses, %d checks; want every check a miss", c.Name, hits, misses, checked)
		}
		if got := save(u); !bytes.Equal(got, want) {
			t.Errorf("%s: universe saved after every check fell back differs from the normal run's (%d vs %d bytes)", c.Name, len(got), len(want))
		}
	}
}
