package worldgen

import (
	"context"
	"math"
	"testing"

	"permadead/internal/fetch"
	"permadead/internal/iabot"
	"permadead/internal/simclock"
	"permadead/internal/simweb"
)

// smallUniverse is generated once and shared across tests (generation
// runs the full timeline, so it is the expensive part).
var smallU *Universe

func universe(t *testing.T) *Universe {
	t.Helper()
	if smallU == nil {
		smallU = Generate(SmallParams())
	}
	return smallU
}

func TestGenerateMarksAllDestinedLinks(t *testing.T) {
	u := universe(t)
	slip := float64(len(u.Unmarked)) / float64(len(u.Plan.Links))
	if slip > 0.01 {
		t.Errorf("unmarked slippage %.2f%% (%d of %d): %v",
			slip*100, len(u.Unmarked), len(u.Plan.Links), head(u.Unmarked, 5))
	}
}

func head(s []string, n int) []string {
	if len(s) > n {
		return s[:n]
	}
	return s
}

func TestMarkDaysMatchHistory(t *testing.T) {
	u := universe(t)
	for _, lp := range u.Plan.Links[:min(200, len(u.Plan.Links))] {
		h, ok := u.Wiki.HistoryOf(lp.Article, lp.URL)
		if !ok {
			continue
		}
		if h.MarkedDeadBy != iabot.DefaultName {
			t.Errorf("%s marked by %q", lp.URL, h.MarkedDeadBy)
		}
		if h.Added != lp.PostDay {
			t.Errorf("%s added %v, planned %v", lp.URL, h.Added, lp.PostDay)
		}
		if h.MarkedDead.Before(lp.DeathDay) {
			t.Errorf("%s marked %v before death %v", lp.URL, h.MarkedDead, lp.DeathDay)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestLiveOutcomesRealized fetches each planned link at study time and
// checks the measured Figure 4 category matches the destined one.
func TestLiveOutcomesRealized(t *testing.T) {
	u := universe(t)
	client := fetch.New(simweb.NewTransport(u.World, u.Params.StudyTime))
	ctx := context.Background()

	mismatch := 0
	checked := 0
	for _, lp := range u.Plan.Links {
		if !lp.MarkDay.Valid() {
			continue
		}
		checked++
		res := client.Fetch(ctx, lp.URL)
		want := map[LiveOutcome]fetch.Category{
			LiveDNS:     fetch.CatDNSFailure,
			Live404:     fetch.Cat404,
			LiveTimeout: fetch.CatTimeout,
			LiveOther:   fetch.CatOther,
			Live200Real: fetch.Cat200,
			Live200Soft: fetch.Cat200,
		}[lp.Live]
		if res.Category != want {
			mismatch++
			if mismatch <= 5 {
				t.Logf("mismatch: %s live=%v got=%v (hist=%v, death=%v, mark=%v)",
					lp.URL, lp.Live, res.Category, lp.Hist, lp.DeathDay, lp.MarkDay)
			}
		}
	}
	if frac := float64(mismatch) / float64(checked); frac > 0.02 {
		t.Errorf("live outcome mismatch rate %.1f%% (%d/%d)", frac*100, mismatch, checked)
	}
}

// TestArchiveHistoriesRealized verifies the §4 class of each link as
// the study would measure it: pre-mark snapshots via the archive.
func TestArchiveHistoriesRealized(t *testing.T) {
	u := universe(t)
	bad := 0
	checked := 0
	for _, lp := range u.Plan.Links {
		if !lp.MarkDay.Valid() {
			continue
		}
		checked++
		snaps := u.Archive.SnapshotsBetween(lp.URL, 0, lp.MarkDay)
		has200, has3xx, hasAny := false, false, len(snaps) > 0
		for _, s := range snaps {
			if s.InitialStatus == 200 {
				has200 = true
			}
			if s.IsRedirect() {
				has3xx = true
			}
		}
		ok := true
		switch lp.Hist {
		case HistPre200:
			ok = has200
		case HistRedirValid, HistRedirErr:
			ok = !has200 && has3xx
		case HistErrOnly:
			// Captures may exist pre- or post-mark, but none usable.
			ok = !has200 && !has3xx
		case HistNone:
			ok = !hasAny && len(u.Archive.Snapshots(lp.URL)) == 0
		}
		if !ok {
			bad++
			if bad <= 8 {
				t.Logf("hist mismatch: %s hist=%v pre-mark:(200=%v 3xx=%v any=%v) live=%v",
					lp.URL, lp.Hist, has200, has3xx, hasAny, lp.Live)
			}
		}
	}
	if frac := float64(bad) / float64(checked); frac > 0.03 {
		t.Errorf("archive history mismatch rate %.1f%% (%d/%d)", frac*100, bad, checked)
	}
}

func TestPostingDistribution(t *testing.T) {
	u := universe(t)
	after2015, after2017 := 0, 0
	for _, lp := range u.Plan.Links {
		if lp.PostDay.Year() > 2015 {
			after2015++
		}
		if lp.PostDay.Year() > 2017 {
			after2017++
		}
	}
	n := float64(len(u.Plan.Links))
	// Figure 3(c): ~40% after 2015, ~20% after 2017. Small universes
	// and the Live200Real clamp add drift; allow a generous band.
	if f := float64(after2015) / n; math.Abs(f-0.40) > 0.10 {
		t.Errorf("posted after 2015: %.2f, want ~0.40", f)
	}
	if f := float64(after2017) / n; math.Abs(f-0.20) > 0.10 {
		t.Errorf("posted after 2017: %.2f, want ~0.20", f)
	}
}

func TestDomainShape(t *testing.T) {
	u := universe(t)
	singles := 0
	for _, d := range u.Plan.Domains {
		if len(d.Links) == 1 {
			singles++
		}
	}
	frac := float64(singles) / float64(len(u.Plan.Domains))
	if frac < 0.60 || frac > 0.85 {
		t.Errorf("singleton domain fraction = %.2f, want ~0.70", frac)
	}
	// Mean links per domain ≈ 10000/3521 ≈ 2.8.
	mean := float64(len(u.Plan.Links)) / float64(len(u.Plan.Domains))
	if mean < 1.8 || mean > 4.5 {
		t.Errorf("mean links per domain = %.2f", mean)
	}
}

func TestBackgroundBehaviour(t *testing.T) {
	u := universe(t)
	patched, userMarked := 0, 0
	for _, bg := range u.Plan.Background {
		h, ok := u.Wiki.HistoryOf(bg.Article, bg.URL)
		if !ok {
			t.Errorf("background link %s missing from wiki", bg.URL)
			continue
		}
		switch bg.Kind {
		case BgHealthy:
			if h.MarkedDead.Valid() || h.Patched {
				t.Errorf("healthy link %s was touched: %+v", bg.URL, h)
			}
		case BgPatched:
			if h.Patched {
				patched++
			}
		case BgUserMarked:
			if h.MarkedDead.Valid() && h.MarkedDeadBy != iabot.DefaultName {
				userMarked++
			}
		}
	}
	// Most patched-destined links get rescued; most user-marked links
	// keep their human tag (IABot may win the odd race).
	np, nu := 0, 0
	for _, bg := range u.Plan.Background {
		switch bg.Kind {
		case BgPatched:
			np++
		case BgUserMarked:
			nu++
		}
	}
	if np > 0 && float64(patched)/float64(np) < 0.9 {
		t.Errorf("patched %d of %d destined background links", patched, np)
	}
	if nu > 0 && float64(userMarked)/float64(nu) < 0.8 {
		t.Errorf("user-marked %d of %d destined links", userMarked, nu)
	}
}

func TestRecoveredLinksWork(t *testing.T) {
	u := universe(t)
	client := fetch.New(simweb.NewTransport(u.World, u.Params.StudyTime))
	ctx := context.Background()
	viaRedirect, direct := 0, 0
	for _, lp := range u.Plan.Links {
		if lp.Live != Live200Real || !lp.MarkDay.Valid() {
			continue
		}
		res := client.Fetch(ctx, lp.URL)
		if res.FinalStatus != 200 {
			t.Errorf("recovered link %s final status %d", lp.URL, res.FinalStatus)
			continue
		}
		if res.Redirected {
			viaRedirect++
		} else {
			direct++
		}
		// It must have been broken when IABot marked it.
		dayBefore := lp.MarkDay
		preClient := fetch.New(simweb.NewTransport(u.World, dayBefore))
		if pre := preClient.Fetch(ctx, lp.URL); pre.FinalStatus == 200 {
			t.Errorf("recovered link %s was alive at mark day %v", lp.URL, lp.MarkDay)
		}
	}
	if viaRedirect+direct == 0 {
		t.Fatal("no recovered links found")
	}
	frac := float64(viaRedirect) / float64(viaRedirect+direct)
	if frac < 0.6 || frac > 0.95 {
		t.Errorf("via-redirect fraction = %.2f, want ~0.79", frac)
	}
}

func TestUniverseDeterminism(t *testing.T) {
	p := SmallParams().Scale(0.2) // tiny for speed
	u1 := Generate(p)
	u2 := Generate(p)
	if u1.Summary() != u2.Summary() {
		t.Errorf("same seed, different universes:\n%s\nvs\n%s", u1.Summary(), u2.Summary())
	}
	if len(u1.Plan.Links) != len(u2.Plan.Links) {
		t.Fatal("link counts differ")
	}
	for i := range u1.Plan.Links {
		if u1.Plan.Links[i].URL != u2.Plan.Links[i].URL {
			t.Fatalf("link %d URL differs: %s vs %s", i, u1.Plan.Links[i].URL, u2.Plan.Links[i].URL)
		}
	}
}

func TestScanDaysDeterministic(t *testing.T) {
	p := DefaultParams()
	a := ScanDays(p, "Some Article", simclock.FromDate(2010, 1, 1))
	b := ScanDays(p, "Some Article", simclock.FromDate(2010, 1, 1))
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("scan days: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("scan days differ")
		}
	}
	// Interval respected.
	for i := 1; i < len(a); i++ {
		if a[i].Sub(a[i-1]) != p.ScanIntervalDays {
			t.Errorf("scan interval %d", a[i].Sub(a[i-1]))
		}
	}
}

func TestScaleParams(t *testing.T) {
	p := DefaultParams().Scale(0.1)
	if p.SampleSize != 1000 {
		t.Errorf("scaled sample = %d", p.SampleSize)
	}
	if p.QuotaHistPre200 != 108 {
		t.Errorf("scaled pre200 = %d", p.QuotaHistPre200)
	}
	if p.FracRealViaRedirect != 0.79 {
		t.Error("fractions must not scale")
	}
	// Quota sums stay close to the sample size.
	live := p.QuotaDNS + p.Quota404 + p.QuotaTimeout + p.QuotaOther + p.Quota200Real + p.Quota200Soft
	if d := live - p.SampleSize; d < -20 || d > 20 {
		t.Errorf("live quota sum drift = %d", d)
	}
	hist := p.QuotaHistPre200 + p.QuotaHistRedirValid + p.QuotaHistRedirErr + p.QuotaHistErrOnly + p.QuotaHistNone
	if d := hist - p.SampleSize; d < -20 || d > 20 {
		t.Errorf("hist quota sum drift = %d", d)
	}
}

// TestBotCheckIsStatusOnly: the generator's IABot reads FinalStatus
// only (§2.1), and its client says so — a live page answers 200 with no
// body retained, which is what lets the simulated transport skip
// rendering one on each of the timeline's fetches.
func TestBotCheckIsStatusOnly(t *testing.T) {
	u := universe(t)
	for _, bg := range u.Plan.Background {
		if bg.Kind != BgHealthy {
			continue
		}
		res := u.Bot.NewClient(u.Params.StudyTime).Fetch(context.Background(), bg.URL)
		if res.FinalStatus != 200 || res.Body != "" {
			t.Fatalf("bot check of healthy %s: status %d, %d body bytes retained; want 200 and none",
				bg.URL, res.FinalStatus, len(res.Body))
		}
		if full := fetch.New(simweb.NewTransport(u.World, u.Params.StudyTime)).Fetch(context.Background(), bg.URL); full.Body == "" {
			t.Fatalf("study-style fetch of %s read no body", bg.URL)
		}
		return
	}
	t.Fatal("no healthy background link in the small universe")
}
