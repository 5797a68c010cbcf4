package core

import (
	"context"
	"testing"

	"permadead/internal/fetch"
	"permadead/internal/simweb"
	"permadead/internal/worldgen"
)

// A regeneration with fault injection explicitly off must be
// byte-identical to the default universe: plantFaults may not perturb
// any shared generation state.
func TestFaultInjectionOffUniverseIsByteIdentical(t *testing.T) {
	u, base := runStudy(t)

	p := worldgen.SmallParams()
	p.FlakySiteFrac = 0
	p.FlakyRate = 0.9 // irrelevant while the fraction is zero
	u2 := worldgen.Generate(p)

	var faulted int
	for _, h := range u2.World.Hostnames() {
		if len(u2.World.Site(h).Faults) > 0 {
			faulted++
		}
	}
	if faulted != 0 {
		t.Fatalf("%d sites got fault windows with FlakySiteFrac = 0", faulted)
	}

	cfg := DefaultConfig()
	cfg.SampleSize = u.Params.SampleSize
	cfg.CrawlArticles = 0
	s := &Study{
		Config: cfg,
		Wiki:   u2.Wiki,
		Arch:   u2.Archive,
		Client: fetch.New(simweb.NewTransport(u2.World, cfg.StudyTime)),
		Ranks:  u2.World,
	}
	r, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r.Render() != base.Render() || r.RenderComparison() != base.RenderComparison() {
		t.Error("fault-injection-off universe measured differently from the default universe")
	}
}
