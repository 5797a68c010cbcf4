package worldgen

import "fmt"

// StageCounts returns the run-ahead stage's counters: the GETs it made
// and the bot's checks answered from a slot or made inline.
func StageCounts() (fetches, hits, misses int64) {
	return stageFetches.Load(), stageHits.Load(), stageMisses.Load()
}

// SetDropSlots empties every slot the timeline takes while on is set,
// so every check misses and falls back.
func SetDropSlots(on bool) { dropSlots = on }

// NamedParams is one universe a test generates.
type NamedParams struct {
	Name string
	Params
}

// RunAheadParams are the universes the run-ahead and timeline tests
// generate: Scale(0.05) seeds 1–3 and seed 1's flaky twin (every site
// flaky, failure rate 0.7).
func RunAheadParams() []NamedParams {
	var cases []NamedParams
	for seed := int64(1); seed <= 3; seed++ {
		p := DefaultParams().Scale(0.05)
		p.Seed = seed
		cases = append(cases, NamedParams{fmt.Sprintf("seed%d", seed), p})
	}
	flaky := cases[0].Params
	flaky.FlakySiteFrac, flaky.FlakyRate = 1, 0.7
	return append(cases, NamedParams{"flaky", flaky})
}
