// Command ablate runs the counterfactual experiments behind the
// paper's implications (DESIGN.md §7) and prints one table per sweep:
// the §4.1 availability-timeout tradeoff, the §4.2 redirect-validation
// parameters, the §5.1 capture-on-post delay, the §3 re-check cadence,
// and the WaybackMedic intervention.
//
// With -flaky > 0 the generated universe gets transient-fault windows
// and an extra sweep compares fetch policies (single GET vs retries vs
// confirmation checks) by false-dead rate; -smoke runs only that sweep
// and exits non-zero unless the rate strictly decreases up the ladder.
//
// Usage:
//
//	ablate [-scale f] [-seed n] [-flaky f] [-flaky-rate f] [-smoke]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"permadead/internal/ablation"
	"permadead/internal/archive"
	"permadead/internal/core"
	"permadead/internal/fetch"
	"permadead/internal/figures"
	"permadead/internal/simweb"
	"permadead/internal/stats"
	"permadead/internal/worldgen"
)

func main() {
	var (
		scale     = flag.Float64("scale", 0.1, "universe scale")
		seed      = flag.Int64("seed", 1, "generation seed")
		figsDir   = flag.String("figs", "", "write sweep SVG figures into this directory")
		flaky     = flag.Float64("flaky", 0, "fraction of sites given transient-fault windows (enables the retry-policy ablation)")
		flakyRate = flag.Float64("flaky-rate", 0.5, "per-attempt failure probability inside a fault window")
		smoke     = flag.Bool("smoke", false, "run only the retry-policy ablation and fail unless the false-dead rate strictly decreases single-GET → retry → confirmation")
		scenarios = flag.Bool("scenarios", false, "run only the per-scenario × per-policy false-dead grid (flaky, paywall, geo-block, parking; forces -flaky 0 — the grid plants its own windows) and fail unless the grid matches the expected robustness shape")
	)
	flag.Parse()

	if *smoke && *flaky <= 0 {
		fmt.Fprintln(os.Stderr, "ablate: -smoke requires fault injection (-flaky > 0)")
		os.Exit(2)
	}

	params := worldgen.DefaultParams().Scale(*scale)
	params.Seed = *seed
	params.FlakySiteFrac = *flaky
	params.FlakyRate = *flakyRate
	if *scenarios {
		// The grid's scenario axis includes its own flaky windows;
		// generation-time ones would contaminate every other cell.
		params.FlakySiteFrac = 0
	}
	fmt.Fprintf(os.Stderr, "generating universe (scale %.2f)...\n", *scale)
	u := worldgen.Generate(params)

	cfg := core.DefaultConfig()
	cfg.Seed = *seed
	cfg.SampleSize = params.SampleSize
	cfg.CrawlArticles = 0
	study := &core.Study{
		Config: cfg,
		Wiki:   u.Wiki,
		Arch:   u.Archive,
		Client: fetch.New(simweb.NewTransport(u.World, cfg.StudyTime)),
		Ranks:  u.World,
	}
	records := study.Collect()
	fmt.Fprintf(os.Stderr, "sampled %d permanently dead links\n\n", len(records))
	n := float64(len(records))
	_ = context.Background()

	if *scenarios {
		runScenarioGrid(u, records)
		return
	}

	// --- §3: false-dead rate vs retry policy (fault-injected universe). ---
	var falseDeadPts []ablation.FalseDeadPoint
	if *flaky > 0 {
		falseDeadPts = ablation.FalseDeadSweep(u.World, records, u.Params.StudyTime,
			ablation.DefaultRetryPolicySpecs())
		t9 := stats.Table{
			Title:   "Ablation §3: false-dead rate vs retry policy (fault-injected universe)",
			Headers: []string{"Policy", "Truly alive", "False dead", "Rate", "Fetches spent"},
		}
		for _, pt := range falseDeadPts {
			t9.AddRow(pt.Label, fmt.Sprint(pt.TrulyAlive),
				fmt.Sprint(pt.FalseDead), fmt.Sprintf("%.1f%%", pt.Rate*100),
				fmt.Sprint(pt.Fetches))
		}
		fmt.Println(t9.String())
	}

	if *smoke {
		if err := writeFigs(*figsDir, figures.FalseDeadFigure(falseDeadPts)); err != nil {
			fmt.Fprintf(os.Stderr, "ablate: %v\n", err)
			os.Exit(1)
		}
		if err := checkMonotone(falseDeadPts); err != nil {
			fmt.Fprintf(os.Stderr, "ablate: smoke FAILED: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "smoke OK: false-dead rate strictly decreases single-GET → retry → confirmation")
		return
	}

	timeoutPts := ablation.TimeoutSweep(u.Archive, records, []time.Duration{
		500 * time.Millisecond, time.Second, ablation.Baseline.AvailabilityTimeout,
		5 * time.Second, 30 * time.Second, 0,
	})
	delayPts := ablation.ArchiveDelaySweep(u.World, records,
		[]int{0, 7, 30, 90, 180, 365, 730, 1460})
	recheckPts := ablation.RecheckSweep(u.World, records, u.Params.StudyTime,
		[]int{0, 30, 90, 180, 365})

	// --- §4.1: availability-lookup timeout. ---
	t1 := stats.Table{
		Title:   "Ablation §4.1: IABot availability-lookup timeout",
		Headers: []string{"Timeout", "Copies found", "Copies missed", "Total lookup time"},
	}
	for _, pt := range timeoutPts {
		label := pt.Timeout.String()
		if pt.Timeout == 0 {
			label = "none (WaybackMedic)"
		} else if pt.Timeout == ablation.Baseline.AvailabilityTimeout {
			label += " (production)"
		}
		t1.AddRow(label, fmt.Sprint(pt.FoundCopies),
			fmt.Sprintf("%d (%.1f%%)", pt.Missed, float64(pt.Missed)/n*100),
			pt.LookupCost.Round(time.Second).String())
	}
	fmt.Println(t1.String())

	// --- §4.2: redirect validation parameters. ---
	t2 := stats.Table{
		Title:   "Ablation §4.2: archived-redirect validation parameters",
		Headers: []string{"Window (days)", "Max siblings", "Validated", "Condemned"},
	}
	for _, pt := range ablation.RedirectSweep(u.Archive, records,
		[]int{30, 90, 180, 365}, []int{2, 6, 12}) {
		marker := ""
		if pt.WindowDays == 90 && pt.MaxSiblings == 6 {
			marker = " (paper)"
		}
		t2.AddRow(fmt.Sprintf("%d%s", pt.WindowDays, marker), fmt.Sprint(pt.MaxSiblings),
			fmt.Sprintf("%d (%.1f%%)", pt.Validated, float64(pt.Validated)/n*100),
			fmt.Sprint(pt.Condemned))
	}
	fmt.Println(t2.String())

	// --- §5.1: capture-on-post delay. ---
	t3 := stats.Table{
		Title:   "Ablation §5.1: capture delay after posting",
		Headers: []string{"Delay (days)", "Would have usable copy", "Host unreachable"},
	}
	for _, pt := range delayPts {
		t3.AddRow(fmt.Sprint(pt.DelayDays),
			fmt.Sprintf("%d (%.1f%%)", pt.WouldHaveUsableCopy, float64(pt.WouldHaveUsableCopy)/n*100),
			fmt.Sprint(pt.Unreachable))
	}
	fmt.Println(t3.String())

	// --- §3: re-check cadence for marked links. ---
	t4 := stats.Table{
		Title:   "Ablation §3: re-check cadence for links marked dead",
		Headers: []string{"Interval (days)", "Answer 200 again", "Genuinely recovered", "Fetches spent", "Mean days to recovery"},
	}
	for _, pt := range recheckPts {
		label := fmt.Sprint(pt.IntervalDays)
		if pt.IntervalDays == 0 {
			label = "never (production)"
		}
		t4.AddRow(label, fmt.Sprint(pt.Recovered), fmt.Sprint(pt.Genuine),
			fmt.Sprint(pt.Fetches), fmt.Sprintf("%.0f", pt.MeanDaysToRecovery))
	}
	fmt.Println(t4.String())

	// --- §5.2 implication (b): query-parameter permutation rescue. ---
	// Probe through a memo so repeated URLs (and any later experiment
	// sharing it) pay for one canonicalizing probe per link.
	qr := ablation.QueryPermutationRescue(archive.NewMemo(u.Archive), records)
	t6 := stats.Table{
		Title:   "Extension §5.2(b): rescuing query URLs via parameter-order permutations",
		Headers: []string{"Quantity", "Value"},
	}
	t6.AddRow("Never-archived links with query parameters", fmt.Sprint(qr.QueryLinks))
	t6.AddRow("…with an archived permuted-order variant", fmt.Sprintf("%d (%.1f%%)",
		qr.Rescuable, pctOf(qr.Rescuable, qr.QueryLinks)))
	fmt.Println(t6.String())

	// --- Edit-time link checking. ---
	ec := ablation.EditTimeCheck(u.World, records)
	t7 := stats.Table{
		Title:   "Extension: edit-time link check (alert users posting dead URLs)",
		Headers: []string{"Quantity", "Value"},
	}
	t7.AddRow("Links probed on their posting day", fmt.Sprint(ec.Checked))
	t7.AddRow("Would have been flagged at edit time", fmt.Sprintf("%d (%.1f%%)",
		ec.WouldHaveFlagged, pctOf(ec.WouldHaveFlagged, ec.Checked)))
	t7.AddRow("…of which unreachable (DNS/timeout)", fmt.Sprint(ec.FlaggedUnreachable))
	fmt.Println(t7.String())

	// --- Bot cadence (generation-level design knob). ---
	sc := ablation.ScanIntervalSweep(worldgen.DefaultParams().Scale(0.03), []int{60, 150, 365})
	t8 := stats.Table{
		Title:   "Ablation: IABot scan cadence (0.03-scale regenerations)",
		Headers: []string{"Interval (days)", "Mean days death→mark", "P90", "Fetches over timeline"},
	}
	for _, pt := range sc {
		marker := ""
		if pt.IntervalDays == 150 {
			marker = " (default)"
		}
		t8.AddRow(fmt.Sprintf("%d%s", pt.IntervalDays, marker),
			fmt.Sprintf("%.0f", pt.MeanMarkLatency),
			fmt.Sprintf("%.0f", pt.P90MarkLatency),
			fmt.Sprint(pt.LinksChecked))
	}
	fmt.Println(t8.String())

	// --- §4.1: the WaybackMedic intervention. ---
	res := ablation.MedicExperiment(u.Wiki, u.Archive, u.Params.StudyTime)
	t5 := stats.Table{
		Title:   "WaybackMedic intervention (§4.1; the real run patched 20,080 links)",
		Headers: []string{"Variant", "Rescued (200 copies)", "Rescued (redirect copies)", "Unfixable"},
	}
	t5.AddRow("untimed lookups", fmt.Sprint(res.Basic.Patched), "-", fmt.Sprint(res.Basic.Unfixable))
	t5.AddRow("+ validated redirects (§4.2)", fmt.Sprint(res.WithRedirects.Patched),
		fmt.Sprint(res.WithRedirects.RedirectPatched), fmt.Sprint(res.WithRedirects.Unfixable))
	fmt.Println(t5.String())

	figs := figures.AblationSweeps(timeoutPts, delayPts, recheckPts)
	for name, svg := range figures.FalseDeadFigure(falseDeadPts) {
		figs[name] = svg
	}
	if err := writeFigs(*figsDir, figs); err != nil {
		fmt.Fprintf(os.Stderr, "ablate: %v\n", err)
		os.Exit(1)
	}
}

// runScenarioGrid sweeps the per-scenario × per-policy false-dead
// grid, prints it, emits one `go test -bench`-format line per cell
// (the machine-readable form of the table), and enforces its expected
// shape.
func runScenarioGrid(u *worldgen.Universe, records []core.LinkRecord) {
	grid := ablation.ScenarioSweep(u.World, records, u.Params.StudyTime,
		ablation.DefaultScenarios(), ablation.DefaultRetryPolicySpecs())

	t := stats.Table{
		Title:   "Ablation: false-dead grid, lifecycle scenario × checking policy",
		Headers: []string{"Scenario", "Policy", "Truly alive", "False dead", "Rate", "Fetches"},
	}
	for i, sc := range grid.Scenarios {
		for j, spec := range grid.Specs {
			pt := grid.Cells[i][j]
			t.AddRow(sc.Label, spec.Label, fmt.Sprint(pt.TrulyAlive),
				fmt.Sprint(pt.FalseDead), fmt.Sprintf("%.1f%%", pt.Rate*100),
				fmt.Sprint(pt.Fetches))
		}
	}
	fmt.Println(t.String())

	if err := checkGrid(&grid); err != nil {
		fmt.Fprintf(os.Stderr, "ablate: scenario grid FAILED: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "scenario grid OK: retries rescue flaky, confirmation rescues paywall/geo-block, nothing rescues parking")
}

// checkGrid enforces the grid's robustness shape: the retry ladder
// strictly improves on flaky windows (the PR 5 invariant), same-day
// retries do NOT help against rate-1 paywalls/geo-blocks while spaced
// confirmation escapes their windows entirely, and parking (a 200
// with a parked body) fools every status-based rung equally.
func checkGrid(g *ablation.ScenarioGrid) error {
	cell := func(s, p string) (*ablation.FalseDeadPoint, error) {
		c := g.Cell(s, p)
		if c == nil {
			return nil, fmt.Errorf("grid is missing cell %s/%s", s, p)
		}
		return c, nil
	}

	for _, key := range []string{"single", "retry", "confirm"} {
		if _, err := cell("flaky", key); err != nil {
			return err
		}
	}
	fs, _ := cell("flaky", "single")
	fr, _ := cell("flaky", "retry")
	fc, _ := cell("flaky", "confirm")
	if !(fs.FalseDead > fr.FalseDead && fr.FalseDead > fc.FalseDead) {
		return fmt.Errorf("flaky row should strictly decrease up the ladder, got %d/%d/%d",
			fs.FalseDead, fr.FalseDead, fc.FalseDead)
	}

	for _, key := range []string{"paywall", "geoblock"} {
		single, err := cell(key, "single")
		if err != nil {
			return err
		}
		retry, err := cell(key, "retry")
		if err != nil {
			return err
		}
		confirm, err := cell(key, "confirm")
		if err != nil {
			return err
		}
		if single.FalseDead == 0 {
			return fmt.Errorf("%s scenario did not bite (0 false-dead under single GET)", key)
		}
		if retry.FalseDead != single.FalseDead {
			return fmt.Errorf("same-day retries should not rescue rate-1 %s links, got %d vs %d",
				key, retry.FalseDead, single.FalseDead)
		}
		if confirm.FalseDead != 0 {
			return fmt.Errorf("spaced confirmation should escape the %s window, got %d false-dead",
				key, confirm.FalseDead)
		}
	}

	ps, err := cell("parking", "single")
	if err != nil {
		return err
	}
	pr, _ := cell("parking", "retry")
	pc, _ := cell("parking", "confirm")
	if pr == nil || pc == nil {
		return fmt.Errorf("grid is missing parking cells")
	}
	if ps.FalseDead == 0 {
		return fmt.Errorf("parking scenario did not bite")
	}
	if ps.FalseDead != pr.FalseDead || ps.FalseDead != pc.FalseDead {
		return fmt.Errorf("parking should fool every status-based rung equally, got %d/%d/%d",
			ps.FalseDead, pr.FalseDead, pc.FalseDead)
	}
	return nil
}

// writeFigs writes each rendered SVG into dir (no-op when dir or figs
// is empty).
func writeFigs(dir string, figs map[string]string) error {
	if dir == "" || len(figs) == 0 {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for name, svg := range figs {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}
	return nil
}

// checkMonotone enforces the smoke invariant: each step up the retry
// ladder must strictly reduce the false-dead count.
func checkMonotone(pts []ablation.FalseDeadPoint) error {
	if len(pts) < 2 {
		return fmt.Errorf("retry sweep produced %d points; need at least 2", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		prev, cur := pts[i-1], pts[i]
		if cur.FalseDead >= prev.FalseDead {
			return fmt.Errorf("false-dead count did not strictly decrease: %q=%d vs %q=%d",
				prev.Label, prev.FalseDead, cur.Label, cur.FalseDead)
		}
	}
	return nil
}

func pctOf(n, of int) float64 {
	if of == 0 {
		return 0
	}
	return float64(n) / float64(of) * 100
}
