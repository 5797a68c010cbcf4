// Package ablation implements the counterfactual experiments behind
// the paper's implications — the knobs the paper argues should be
// turned, each evaluated mechanically against the simulated universe:
//
//   - TimeoutSweep (§4.1): how many usable archived copies does
//     IABot's availability-lookup timeout cost, as a function of the
//     timeout?
//   - RedirectSweep (§4.2): how does the redirect-validation yield
//     change with the sibling window and sibling count?
//   - ArchiveDelaySweep (§5.1): if every posted link were captured
//     within D days, how many permanently dead links would have had a
//     usable copy?
//   - RecheckSweep (§3): if previously-marked dead links were
//     re-checked every R days, how many revived links would have been
//     discovered by study time, at what fetch cost?
//   - MedicExperiment (§4.1): the WaybackMedic intervention — run the
//     untimed, redirect-aware bot over the marked links and count the
//     rescues (the paper reports 20,080 patched in the wild).
//
// All experiments consume a study sample (core.LinkRecord) so they
// measure exactly the population the paper measured.
package ablation

import (
	"context"
	"time"

	"permadead/internal/archive"
	"permadead/internal/core"
	"permadead/internal/fetch"
	"permadead/internal/iabot"
	"permadead/internal/redircheck"
	"permadead/internal/simclock"
	"permadead/internal/simweb"
	"permadead/internal/softerror"
	"permadead/internal/stats"
	"permadead/internal/urlutil"
	"permadead/internal/waybackmedic"
	"permadead/internal/wikimedia"
	"permadead/internal/worldgen"
)

// TimeoutPoint is one sweep point of the §4.1 experiment.
type TimeoutPoint struct {
	Timeout time.Duration
	// FoundCopies is how many sampled links' usable pre-mark copies
	// the availability lookup returns within the timeout.
	FoundCopies int
	// Missed is how many usable copies the timeout loses.
	Missed int
	// LookupCost is the summed simulated lookup time (capped at the
	// timeout per query) — the efficiency side of the §4.1 tradeoff.
	LookupCost time.Duration
}

// TimeoutSweep replays IABot's availability lookup for every sampled
// link at its mark day, under each candidate timeout. A zero timeout
// in the input means "no timeout".
func TimeoutSweep(arch *archive.Archive, records []core.LinkRecord, timeouts []time.Duration) []TimeoutPoint {
	out := make([]TimeoutPoint, 0, len(timeouts))
	for _, to := range timeouts {
		pt := TimeoutPoint{Timeout: to}
		for i := range records {
			rec := &records[i]
			lat := arch.LookupLatency(rec.URL)
			if to > 0 && lat > to {
				lat = to
			}
			pt.LookupCost += lat

			_, ok, err := arch.Query(archive.AvailabilityQuery{
				URL:     rec.URL,
				Want:    rec.Added,
				AsOf:    rec.Marked,
				Accept:  archive.AcceptUsable,
				Timeout: to,
			})
			switch {
			case err == archive.ErrAvailabilityTimeout:
				// Does an untimed lookup find a copy? If so, the
				// timeout genuinely cost us one.
				if _, ok2, _ := arch.Query(archive.AvailabilityQuery{
					URL: rec.URL, Want: rec.Added, AsOf: rec.Marked,
					Accept: archive.AcceptUsable,
				}); ok2 {
					pt.Missed++
				}
			case ok:
				pt.FoundCopies++
			}
		}
		out = append(out, pt)
	}
	return out
}

// RedirectPoint is one sweep point of the §4.2 experiment.
type RedirectPoint struct {
	WindowDays  int
	MaxSiblings int
	// Validated is how many sampled links have a pre-mark 3xx copy
	// that validates as non-erroneous under these parameters.
	Validated int
	// Condemned is how many have 3xx copies that fail validation.
	Condemned int
}

// RedirectSweep re-runs the §4.2 redirect validation under each
// (window, siblings) combination.
func RedirectSweep(arch *archive.Archive, records []core.LinkRecord, windows []int, siblings []int) []RedirectPoint {
	var out []RedirectPoint
	for _, w := range windows {
		for _, sib := range siblings {
			checker := &redircheck.Checker{
				Archive:        arch,
				WindowDays:     w,
				MaxSiblings:    sib,
				CandidateLimit: 500,
			}
			pt := RedirectPoint{WindowDays: w, MaxSiblings: sib}
			for i := range records {
				rec := &records[i]
				if hasPreMark200(arch, rec) {
					continue
				}
				if !hasPreMarkRedirect(arch, rec) {
					continue
				}
				if _, v, ok := checker.FindValidatedCopy(rec.URL, rec.Marked); ok && v.NonErroneous {
					pt.Validated++
				} else {
					pt.Condemned++
				}
			}
			out = append(out, pt)
		}
	}
	return out
}

func hasPreMark200(arch *archive.Archive, rec *core.LinkRecord) bool {
	for _, s := range arch.SnapshotsBetween(rec.URL, 0, rec.Marked) {
		if s.InitialStatus == 200 {
			return true
		}
	}
	return false
}

func hasPreMarkRedirect(arch *archive.Archive, rec *core.LinkRecord) bool {
	for _, s := range arch.SnapshotsBetween(rec.URL, 0, rec.Marked) {
		if s.IsRedirect() {
			return true
		}
	}
	return false
}

// DelayPoint is one sweep point of the §5.1 capture-on-post
// counterfactual.
type DelayPoint struct {
	DelayDays int
	// WouldHaveUsableCopy counts links whose capture at post+delay
	// would have recorded a working (initial-200) page.
	WouldHaveUsableCopy int
	// Unreachable counts links whose host did not even answer then.
	Unreachable int
}

// ArchiveDelaySweep answers the paper's §5.1 implication ("archive
// every URL soon after a link to it is posted") mechanically: for each
// sampled link, capture it into a throwaway archive D days after its
// posting day and see what would have been recorded.
func ArchiveDelaySweep(world *simweb.World, records []core.LinkRecord, delays []int) []DelayPoint {
	out := make([]DelayPoint, 0, len(delays))
	for _, d := range delays {
		pt := DelayPoint{DelayDays: d}
		scratch := archive.New()
		crawler := worldgen.NewCrawler(world, scratch)
		for i := range records {
			rec := &records[i]
			snap, err := crawler.Capture(rec.URL, rec.Added.Add(d))
			switch {
			case err != nil:
				pt.Unreachable++
			case snap.InitialStatus == 200:
				pt.WouldHaveUsableCopy++
			}
		}
		out = append(out, pt)
	}
	return out
}

// RecheckPoint is one sweep point of the §3 re-check counterfactual.
type RecheckPoint struct {
	IntervalDays int
	// Recovered counts links whose re-check saw a final 200 — the
	// naive criterion. It overcounts: soft-404s and parked domains
	// answer 200 too (§3).
	Recovered int
	// Genuine counts recoveries that also pass the soft-404 probe —
	// links that really came back (the paper's 3%).
	Genuine int
	// Fetches is the total number of re-check fetches spent.
	Fetches int
	// MeanDaysToRecovery averages, over recovered links, the days
	// between marking and the re-check that found them alive.
	MeanDaysToRecovery float64
}

// RecheckSweep simulates re-checking every marked link every interval
// days from its mark day until the study day, counting how many of the
// §3 revived links a re-check policy would have discovered, and at
// what fetch cost. (IABot's actual policy never re-checks: the
// baseline is interval=∞ with zero recoveries and zero cost.)
func RecheckSweep(world *simweb.World, records []core.LinkRecord, studyTime simclock.Day, intervals []int) []RecheckPoint {
	ctx := context.Background()
	out := make([]RecheckPoint, 0, len(intervals))
	for _, iv := range intervals {
		pt := RecheckPoint{IntervalDays: iv}
		if iv <= 0 {
			out = append(out, pt)
			continue
		}
		totalDays := 0
		for i := range records {
			rec := &records[i]
			for day := rec.Marked.Add(iv); !day.After(studyTime); day = day.Add(iv) {
				client := fetch.New(simweb.NewTransport(world, day))
				res := client.Fetch(ctx, rec.URL)
				pt.Fetches++
				if res.FinalStatus == 200 {
					pt.Recovered++
					totalDays += day.Sub(rec.Marked)
					// The naive 200 criterion resurrects soft-404s
					// too; a careful re-checker runs the §3 probe.
					det := softerror.NewDetector(client)
					if v := det.Check(ctx, rec.URL, res); !v.Broken {
						pt.Genuine++
					}
					break
				}
			}
		}
		if pt.Recovered > 0 {
			pt.MeanDaysToRecovery = float64(totalDays) / float64(pt.Recovered)
		}
		out = append(out, pt)
	}
	return out
}

// MedicResult summarizes a WaybackMedic intervention (§4.1).
type MedicResult struct {
	// Basic is the real bot's behaviour: untimed lookups, 200-status
	// copies only.
	Basic waybackmedic.Stats
	// WithRedirects additionally applies the paper's §4.2 proposal.
	WithRedirects waybackmedic.Stats
}

// MedicExperiment runs WaybackMedic over a clone of the wiki twice —
// once as the real bot operates and once with validated-redirect
// rescue — and reports both outcomes. The input wiki is not modified.
func MedicExperiment(wiki *wikimedia.Wiki, arch *archive.Archive, day simclock.Day) MedicResult {
	var res MedicResult

	m1 := waybackmedic.New(wiki.Clone(), arch)
	res.Basic = m1.Run(day)

	m2 := waybackmedic.New(wiki.Clone(), arch)
	m2.AcceptRedirects = true
	m2.Checker = redircheck.NewChecker(arch)
	res.WithRedirects = m2.Run(day)
	return res
}

// Baseline documents IABot's relevant constants so ablation reports
// can show what the production policy is.
var Baseline = struct {
	AvailabilityTimeout time.Duration
	RecheckInterval     int // days; 0 = never
}{
	AvailabilityTimeout: iabot.DefaultAvailabilityTimeout,
	RecheckInterval:     0,
}

// QueryRescueResult summarizes the §5.2 implication (b) experiment:
// rescuing never-archived query-parameter URLs through archived
// copies whose query parameters appear in a different order.
type QueryRescueResult struct {
	// QueryLinks counts never-archived sampled links carrying a query
	// string.
	QueryLinks int
	// Rescuable counts those with an archived permuted-order variant.
	Rescuable int
}

// QueryPermutationRescue scans the sample's never-archived links for
// archived parameter-order permutations.
func QueryPermutationRescue(arch *archive.Archive, records []core.LinkRecord) QueryRescueResult {
	var res QueryRescueResult
	for i := range records {
		rec := &records[i]
		if len(arch.Snapshots(rec.URL)) > 0 {
			continue
		}
		if !urlutil.HasQuery(rec.URL) {
			continue
		}
		res.QueryLinks++
		if _, ok := arch.FindQueryPermutation(rec.URL); ok {
			res.Rescuable++
		}
	}
	return res
}

// EditCheckResult summarizes the edit-time link-check counterfactual:
// the paper's recommendation that "the user needs to be alerted if
// that URL is dysfunctional" when adding a link.
type EditCheckResult struct {
	// Checked is the number of sampled links probed.
	Checked int
	// WouldHaveFlagged counts links that did not answer a final 200 on
	// the day they were posted — typos and already-dead URLs an
	// edit-time check would have caught before they entered Wikipedia.
	WouldHaveFlagged int
	// FlaggedUnreachable counts the flagged subset that failed at the
	// transport level (DNS/timeouts) rather than with an HTTP error.
	FlaggedUnreachable int
}

// EditTimeCheck replays, for every sampled link, the fetch a
// link-checking edit filter would have issued on the posting day.
func EditTimeCheck(world *simweb.World, records []core.LinkRecord) EditCheckResult {
	ctx := context.Background()
	var res EditCheckResult
	for i := range records {
		rec := &records[i]
		client := fetch.New(simweb.NewTransport(world, rec.Added))
		out := client.Fetch(ctx, rec.URL)
		res.Checked++
		if out.FinalStatus == 200 {
			continue
		}
		res.WouldHaveFlagged++
		if out.Category == fetch.CatDNSFailure || out.Category == fetch.CatTimeout {
			res.FlaggedUnreachable++
		}
	}
	return res
}

// ScanIntervalPoint is one sweep point of the bot-cadence ablation: a
// design knob of IABot's operation rather than of the paper's
// analyses. More frequent scans mark dead links sooner (shortening the
// window in which readers hit an untagged broken reference) at a
// proportional fetch cost.
type ScanIntervalPoint struct {
	IntervalDays int
	// MeanMarkLatency is the mean days between a link's death and
	// IABot tagging it.
	MeanMarkLatency float64
	// P90MarkLatency is the 90th-percentile latency.
	P90MarkLatency float64
	// LinksChecked is the bot's total fetch count over the timeline.
	LinksChecked int
	// Marked is how many destined links were tagged before the study.
	Marked int
}

// ScanIntervalSweep regenerates a universe per candidate cadence and
// measures marking latency against the generator's ground-truth death
// days. Unlike the other ablations this is a generation-level
// experiment (the cadence shapes the whole timeline), so it consumes
// Params rather than a sample — use a small scale.
func ScanIntervalSweep(base worldgen.Params, intervals []int) []ScanIntervalPoint {
	out := make([]ScanIntervalPoint, 0, len(intervals))
	for _, iv := range intervals {
		p := base
		p.ScanIntervalDays = iv
		u := worldgen.Generate(p)

		// Latency is meaningful only for deaths inside the bot era: a
		// link that died in 2010 waits for the bot to exist (2016)
		// regardless of cadence.
		var latencies []float64
		for _, lp := range u.Plan.Links {
			if !lp.MarkDay.Valid() || !lp.DeathDay.Valid() || lp.DeathDay.Before(p.IABotStart) {
				continue
			}
			latencies = append(latencies, float64(lp.MarkDay.Sub(lp.DeathDay)))
		}
		pt := ScanIntervalPoint{
			IntervalDays: iv,
			LinksChecked: u.Bot.Stats().LinksChecked,
			Marked:       len(latencies),
		}
		if len(latencies) > 0 {
			cdf := stats.NewCDF(latencies)
			pt.MeanMarkLatency = cdf.Mean()
			pt.P90MarkLatency = cdf.Quantile(0.9)
		}
		out = append(out, pt)
	}
	return out
}
