// Package worldgen generates the simulated universe the study measures:
// a synthetic web (internal/simweb), a Wikipedia with edit histories
// (internal/wikimedia), and a web archive (internal/archive), wired
// together by a day-ordered timeline on which links are posted, pages
// die, capture services archive URLs, and IABot scans articles.
//
// Generation is fate-driven but measurement stays honest: each link
// destined to end up "permanently dead" is assigned a ground-truth
// scenario with probabilities calibrated to the paper's §2–§5 numbers,
// and worldgen constructs the underlying web/wiki/archive state that
// realizes the scenario mechanistically. The study pipeline
// (internal/core) never sees these labels — it measures everything
// through HTTP fetches, edit histories, and archive APIs, exactly as
// the paper did.
package worldgen

import (
	"permadead/internal/simclock"
)

// Params calibrates generation. All link-count quotas are expressed
// for a 10,000-link study sample, as in the paper, and scale together
// through Scale. Every quota cites the paper section it comes from.
type Params struct {
	// Seed drives all randomness; same seed, same universe.
	Seed int64

	// SampleSize is the number of permanently dead links the study
	// samples (§2.4: 10,000).
	SampleSize int
	// PopulationFactor inflates the generated PD-link population
	// relative to SampleSize, so sampling is a real subset operation
	// (§2.4 sampled 10,000 out of ~17,000 crawled; the default 1.15
	// keeps generation affordable).
	PopulationFactor float64

	// --- Figure 4: live-web outcome of PD links at study time. ---
	// Counts per 10,000 (paper: >70% DNS+404, ~16.5% answer 200).
	QuotaDNS     int // whole-site DNS failures
	Quota404     int // page-level 404s
	QuotaTimeout int // hanging servers
	QuotaOther   int // 403 geo-blocks / 503 outages
	Quota200Real int // §3: 305 genuinely functional again
	Quota200Soft int // §3: 200-status soft errors (1,650 − 305)

	// FracRealViaRedirect is the share of functional-again links that
	// reach 200 via a redirect (§3: 79%).
	FracRealViaRedirect float64

	// --- §4: archive history prior to the link being marked dead. ---
	QuotaHistPre200     int // §4.1: 1,082 with a pre-mark 200 copy missed via lookup timeout
	QuotaHistRedirValid int // §4.2: 481 with a validated 3xx copy
	QuotaHistRedirErr   int // §4.2: 3,776 − 481 with only mass-redirect 3xx copies
	QuotaHistErrOnly    int // §5: captures exist but all erroneous
	QuotaHistNone       int // §5.2: 1,982 with no captures at all

	// --- §5.1: temporal structure of the 8,918 non-pre-200 links. ---
	QuotaPrePostCopies int // 619 whose first capture predates posting
	QuotaSameDay       int // 437 captured the day they were posted
	QuotaSameDayTypo   int // 266 of the same-day group that never worked (typos)

	// --- §5.2: spatial structure of the never-archived links. ---
	QuotaNoneZeroDir  int // 749 with no 200-status neighbour in their directory
	QuotaNoneZeroHost int // 256 with none on their whole hostname (subset of the above)
	QuotaNoneTypo     int // 219 typos identified via a unique edit-distance-1 archived URL

	// FracQueryStyle is the share of never-archived links whose URLs
	// carry many query parameters (§5.2's jhpress.nli.org.il example).
	FracQueryStyle float64

	// NeighborCapDir / NeighborCapHost bound the Figure 6 neighbour
	// counts. The paper's x-axis reaches 10^6; the default simulation
	// scales the tail down (documented in EXPERIMENTS.md) to keep the
	// archive index small while preserving the CDF's log-scale shape.
	NeighborCapDir  int
	NeighborCapHost int

	// FracPostMarkCapture is the probability that a (capturable) PD
	// link receives an archive capture after it was marked dead; §3
	// reports 95% of such first copies are erroneous.
	FracPostMarkCapture float64

	// --- Background population (exercises IABot's other paths). ---
	// BackgroundHealthy links stay alive through the study.
	BackgroundHealthy int
	// BackgroundPatched links die but have fast, usable archived
	// copies, so IABot rescues instead of marking them.
	BackgroundPatched int
	// UserMarkedDead links are tagged {{dead link}} manually by human
	// editors; the study's §2.4 filter excludes them.
	UserMarkedDead int

	// --- Wiki shape. ---
	// MeanLinksPerArticle controls how many PD links share an article
	// (§2.4: 10,000 articles held ~17,000 PD URLs → ~1.7).
	MeanLinksPerArticle float64

	// --- Bot schedule. ---
	// IABotStart is when IABot begins scanning (it became dominant on
	// the English Wikipedia around 2016).
	IABotStart simclock.Day
	// ScanIntervalDays is the per-article scan cadence.
	ScanIntervalDays int

	// --- Transient-fault injection (off by default). ---
	// FlakySiteFrac is the fraction of sites given transient-fault
	// windows (simweb.FaultWindow). Zero disables fault injection
	// entirely, keeping generation byte-identical to a fault-unaware
	// build; the schedule is drawn from an independent RNG stream, so
	// the rest of the universe is unchanged either way.
	FlakySiteFrac float64
	// FlakyRate is the per-attempt failure probability inside a fault
	// window (required > 0 for injection to occur).
	FlakyRate float64
	// FlakyRetryAfterSec is the Retry-After advertisement on injected
	// 503/429 responses (default 120 when zero).
	FlakyRetryAfterSec int
	// FlakyStreamDays, when positive, extends each flaky site's fault
	// schedule past StudyTime with alternating on/off windows for that
	// many days. The continuous monitor feeds on this: every window
	// opening makes live links look dead, every closing lets a suspect
	// re-check find them alive again, so a long-running stream session
	// has a steady supply of verdict flips instead of a single burst
	// when the study-time window expires. Zero (the default) leaves the
	// schedule exactly as before, so existing universes are unchanged.
	FlakyStreamDays int

	// Progress, when set, receives coarse generation progress: the
	// stage name and a done/total pair (total 0 for untracked stages).
	// Used by the CLIs to show movement during full-scale generation.
	Progress func(stage string, done, total int) `json:"-"`

	// StudyTime is the measurement day (§2.4: March 2022).
	StudyTime simclock.Day
	// LastDeath bounds how late a PD link may die, leaving room for
	// IABot to mark it before the study.
	LastDeath simclock.Day
}

// DefaultParams returns the paper-calibrated parameters for a
// 10,000-link study.
func DefaultParams() Params {
	return Params{
		Seed:             1,
		SampleSize:       10000,
		PopulationFactor: 1.15,

		QuotaDNS:     3700,
		Quota404:     3500,
		QuotaTimeout: 550,
		QuotaOther:   600,
		Quota200Real: 305,
		Quota200Soft: 1345,

		FracRealViaRedirect: 0.79,

		QuotaHistPre200:     1082,
		QuotaHistRedirValid: 481,
		QuotaHistRedirErr:   3295,
		QuotaHistErrOnly:    3160,
		QuotaHistNone:       1982,

		QuotaPrePostCopies: 619,
		QuotaSameDay:       437,
		QuotaSameDayTypo:   266,

		QuotaNoneZeroDir:  749,
		QuotaNoneZeroHost: 256,
		QuotaNoneTypo:     219,

		FracQueryStyle: 0.35,

		NeighborCapDir:  8000,
		NeighborCapHost: 40000,

		FracPostMarkCapture: 0.62,

		BackgroundHealthy: 6000,
		BackgroundPatched: 2500,
		UserMarkedDead:    400,

		MeanLinksPerArticle: 1.45,

		IABotStart:       simclock.FromDate(2016, 1, 1),
		ScanIntervalDays: 150,

		StudyTime: simclock.StudyTime,
		LastDeath: simclock.FromDate(2021, 9, 1),
	}
}

// Scale multiplies every count-valued quota by f (minimum 1 where the
// original was positive), producing a smaller or larger universe with
// the same proportions. Fractions and dates are unchanged.
func (p Params) Scale(f float64) Params {
	s := func(n int) int {
		if n <= 0 {
			return n
		}
		v := int(float64(n)*f + 0.5)
		if v < 1 {
			v = 1
		}
		return v
	}
	p.SampleSize = s(p.SampleSize)
	p.QuotaDNS = s(p.QuotaDNS)
	p.Quota404 = s(p.Quota404)
	p.QuotaTimeout = s(p.QuotaTimeout)
	p.QuotaOther = s(p.QuotaOther)
	p.Quota200Real = s(p.Quota200Real)
	p.Quota200Soft = s(p.Quota200Soft)
	p.QuotaHistPre200 = s(p.QuotaHistPre200)
	p.QuotaHistRedirValid = s(p.QuotaHistRedirValid)
	p.QuotaHistRedirErr = s(p.QuotaHistRedirErr)
	p.QuotaHistErrOnly = s(p.QuotaHistErrOnly)
	p.QuotaHistNone = s(p.QuotaHistNone)
	p.QuotaPrePostCopies = s(p.QuotaPrePostCopies)
	p.QuotaSameDay = s(p.QuotaSameDay)
	p.QuotaSameDayTypo = s(p.QuotaSameDayTypo)
	p.QuotaNoneZeroDir = s(p.QuotaNoneZeroDir)
	p.QuotaNoneZeroHost = s(p.QuotaNoneZeroHost)
	p.QuotaNoneTypo = s(p.QuotaNoneTypo)
	p.NeighborCapDir = s(p.NeighborCapDir)
	p.NeighborCapHost = s(p.NeighborCapHost)
	p.BackgroundHealthy = s(p.BackgroundHealthy)
	p.BackgroundPatched = s(p.BackgroundPatched)
	p.UserMarkedDead = s(p.UserMarkedDead)
	return p
}

// SmallParams returns a ~6% scale universe for tests and examples:
// roughly 600 sampled links, generated in well under a second.
func SmallParams() Params {
	return DefaultParams().Scale(0.06)
}

// PopulationSize is the number of PD links generated before sampling.
func (p Params) PopulationSize() int {
	n := int(float64(p.SampleSize) * p.PopulationFactor)
	if n < p.SampleSize {
		n = p.SampleSize
	}
	return n
}
