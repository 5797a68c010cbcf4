package ablation

import (
	"permadead/internal/core"
	"permadead/internal/hashx"
	"permadead/internal/simclock"
	"permadead/internal/simweb"
)

// Per-scenario decay ablation: beyond PR 5's flaky-server windows, the
// lifecycle scenarios — paywall rollouts, geo-blocks, parking waves —
// each break links in a characteristically different way, and the
// per-scenario × per-policy false-dead grid shows which checking
// policies are robust where:
//
//   - flaky (503, rate < 1): retrying inside the window helps, so the
//     ladder strictly improves — the PR 5 result.
//   - paywall / geo-block (402/403, rate 1): retries inside the window
//     never help; only confirmation checks spaced past the window do.
//   - parking (200 + parked body, rate 1): every status-based rung is
//     equally fooled — the page "works". Only the sweep's content
//     criterion catches it, and no retry cadence changes that.

// Scenario is one lifecycle perturbation to plant over the universe.
type Scenario struct {
	// Key is the machine-stable identifier used in grid cells and
	// benchmark names; Label is the figure legend.
	Key   string
	Label string
	Mode  simweb.FaultMode
	// Rate is the per-attempt failure probability (1 for lifecycle
	// scenarios: the paywall does not flicker).
	Rate float64
	// SiteFrac is the fraction of hosts the scenario hits, selected by
	// a deterministic per-host hash.
	SiteFrac float64
	// FromOffset/ToOffset place the window relative to study time.
	FromOffset, ToOffset int
}

// DefaultScenarios is the grid's scenario axis. Windows open shortly
// before study time and close 12 days after it: long enough that
// naive same-day retries stay inside, short enough that confirmation
// checks spaced 45 days apart escape.
func DefaultScenarios() []Scenario {
	return []Scenario{
		{Key: "flaky", Label: "flaky 503 (rate 0.6)", Mode: simweb.FaultServerBusy, Rate: 0.6, SiteFrac: 0.5, FromOffset: -3, ToOffset: 12},
		{Key: "paywall", Label: "paywall rollout", Mode: simweb.FaultPaywall, Rate: 1, SiteFrac: 0.5, FromOffset: -3, ToOffset: 12},
		{Key: "geoblock", Label: "geo-block wave", Mode: simweb.FaultGeoBlock, Rate: 1, SiteFrac: 0.5, FromOffset: -3, ToOffset: 12},
		{Key: "parking", Label: "parking wave", Mode: simweb.FaultParking, Rate: 1, SiteFrac: 0.5, FromOffset: -3, ToOffset: 12},
	}
}

// hits reports whether the scenario's deterministic host draw selects
// the hostname.
func (sc Scenario) hits(host string) bool {
	if sc.SiteFrac >= 1 {
		return true
	}
	if sc.SiteFrac <= 0 {
		return false
	}
	h := hashx.Mix64(hashx.FNV1a(sc.Key) ^ hashx.FNV1a(host))
	return float64(h>>11)/float64(1<<53) < sc.SiteFrac
}

// ScenarioGrid is the per-scenario × per-policy false-dead surface.
type ScenarioGrid struct {
	Scenarios []Scenario
	Specs     []RetryPolicySpec
	// Cells[i][j] is scenario i under policy j.
	Cells [][]FalseDeadPoint
}

// Cell returns the grid cell by keys, or nil.
func (g *ScenarioGrid) Cell(scenarioKey, policyKey string) *FalseDeadPoint {
	for i, sc := range g.Scenarios {
		if sc.Key != scenarioKey {
			continue
		}
		for j, spec := range g.Specs {
			if spec.Key == policyKey {
				return &g.Cells[i][j]
			}
		}
	}
	return nil
}

// ScenarioSweep plants each scenario over the world in turn, runs the
// policy sweep, and removes the planted windows again — the world is
// returned exactly as it came, planted-fault bookkeeping included, so
// scenarios never contaminate one another. Planting appends bounded
// FaultWindows to a deterministic subset of sites; the fault-free
// truth baseline inside FalseDeadSweep is unaffected by construction
// (ground-truth reads bypass windows entirely).
func ScenarioSweep(world *simweb.World, records []core.LinkRecord, studyTime simclock.Day, scenarios []Scenario, specs []RetryPolicySpec) ScenarioGrid {
	grid := ScenarioGrid{Scenarios: scenarios, Specs: specs}
	for _, sc := range scenarios {
		planted := plantScenario(world, sc, studyTime)
		grid.Cells = append(grid.Cells, FalseDeadSweep(world, records, studyTime, specs))
		unplant(planted)
	}
	return grid
}

// plantedSite remembers one site's fault list length before planting.
type plantedSite struct {
	site *simweb.Site
	orig int
}

func plantScenario(world *simweb.World, sc Scenario, studyTime simclock.Day) []plantedSite {
	var planted []plantedSite
	for _, host := range world.Hostnames() {
		if !sc.hits(host) {
			continue
		}
		site := world.Site(host)
		if site == nil {
			continue
		}
		planted = append(planted, plantedSite{site: site, orig: len(site.Faults)})
		site.Faults = append(site.Faults, simweb.FaultWindow{
			From: studyTime.Add(sc.FromOffset),
			To:   studyTime.Add(sc.ToOffset),
			Mode: sc.Mode,
			Rate: sc.Rate,
			Seed: hashx.Mix64(hashx.FNV1a(sc.Key+"|"+host) ^ 0x5ce9a610),
		})
	}
	return planted
}

func unplant(planted []plantedSite) {
	for _, p := range planted {
		p.site.Faults = p.site.Faults[:p.orig]
	}
}
