package worldgen

import (
	"math/rand"

	"permadead/internal/hashx"
	"permadead/internal/simclock"
	"permadead/internal/simweb"
)

// plantFaults assigns transient-fault windows to a fraction of sites.
//
// Placement is calibrated so both halves of the false-dead story can
// be observed:
//
//   - Every flaky site gets one window that covers StudyTime but ends
//     within two weeks after it, so a single-GET study check can be
//     unlucky while a confirmation recheck spaced ≥ a month later lands
//     on clear air.
//   - Up to two additional windows are scattered through the IABot
//     scan era (well before StudyTime), so some genuinely healthy links
//     get marked "permanently dead" during the timeline purely because
//     the bot checked them on a bad day.
//   - With FlakyStreamDays > 0, alternating on/off windows continue
//     past StudyTime so a continuous monitor session sees verdicts
//     keep flipping instead of settling after the first expiry.
//
// The schedule is drawn from its own RNG stream (seeded off
// Params.Seed) over the sorted hostname list, so enabling or disabling
// injection never perturbs the rest of generation: with
// FlakySiteFrac == 0 the function returns before touching any state.
func plantFaults(p Params, world *simweb.World) {
	if p.FlakySiteFrac <= 0 || p.FlakyRate <= 0 {
		return
	}
	rng := rand.New(rand.NewSource(p.Seed + 0x51ab))
	modes := []simweb.FaultMode{
		simweb.FaultServerBusy, simweb.FaultRateLimit,
		simweb.FaultTimeout, simweb.FaultDNSFlap,
	}
	scanEraEnd := p.StudyTime.Add(-200)
	for _, host := range world.Hostnames() {
		if rng.Float64() >= p.FlakySiteFrac {
			continue
		}
		s := world.Site(host)
		if s == nil {
			continue
		}
		window := func(i int, from, to simclock.Day) simweb.FaultWindow {
			return simweb.FaultWindow{
				From:          from,
				To:            to,
				Mode:          modes[rng.Intn(len(modes))],
				Rate:          p.FlakyRate,
				RetryAfterSec: p.FlakyRetryAfterSec,
				Seed:          hashx.FNV1a(host) ^ (hashx.Golden * uint64(i+1)),
			}
		}
		// The study-time window.
		studyEnd := p.StudyTime.Add(1 + rng.Intn(14))
		s.Faults = append(s.Faults, window(0,
			p.StudyTime.Add(-(5+rng.Intn(40))),
			studyEnd))
		// Post-study alternating windows for continuous-monitor runs:
		// on for 3–12 days, clear for 4–18, repeating until the stream
		// horizon. Each site's phase is independently staggered by the
		// rng draws so the fleet of flaky sites flips on different days.
		if p.FlakyStreamDays > 0 {
			horizon := p.StudyTime.Add(p.FlakyStreamDays)
			for from := studyEnd.Add(4 + rng.Intn(15)); from.Before(horizon); {
				to := from.Add(3 + rng.Intn(10))
				if horizon.Before(to) {
					to = horizon
				}
				s.Faults = append(s.Faults, window(len(s.Faults), from, to))
				from = to.Add(4 + rng.Intn(15))
			}
		}
		// Historical windows in the bot-scan era.
		for n := rng.Intn(3); n > 0; n-- {
			span := scanEraEnd.Sub(p.IABotStart)
			if span <= 1 {
				break
			}
			from := p.IABotStart.Add(rng.Intn(span))
			to := clampDay(from.Add(10+rng.Intn(80)), from.Add(1), scanEraEnd)
			s.Faults = append(s.Faults, window(len(s.Faults), from, to))
		}
	}
}
