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
//	ablate [-scale f] [-seed n] [-flaky f] [-flaky-rate f] [-smoke | -scenarios] [-figs dir]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"permadead/internal/ablation"
	"permadead/internal/core"
	"permadead/internal/figures"
	"permadead/internal/persist"
	"permadead/internal/stats"
	"permadead/internal/worldgen"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ablate: ")
	src := persist.NewSource(0.1)
	src.Register(flag.CommandLine, "scale", "seed", "flaky", "flaky-rate")
	var (
		figsDir   = flag.String("figs", "", "write sweep SVG figures into this directory")
		smoke     = flag.Bool("smoke", false, "run only the retry-policy ablation and fail unless the false-dead rate strictly decreases single-GET → retry → confirmation (requires -flaky > 0)")
		scenarios = flag.Bool("scenarios", false, "run only the per-scenario × per-policy false-dead grid (flaky, paywall, geo-block, parking; forces -flaky 0 — the grid plants its own windows) and fail unless the grid matches the expected robustness shape")
	)
	flag.Parse()

	if *smoke && src.Flaky <= 0 {
		log.Print("-smoke requires fault injection (-flaky > 0)")
		os.Exit(2)
	}
	if *scenarios {
		// The grid's scenario axis includes its own flaky windows;
		// generation-time ones would contaminate every other cell.
		src.Flaky = 0
	}
	u, err := src.Open()
	if err != nil {
		log.Fatal(err)
	}

	cfg := core.DefaultConfig()
	cfg.Seed = src.Seed
	cfg.SampleSize = u.Params.SampleSize
	cfg.CrawlArticles = 0
	study := &core.Study{
		Config: cfg,
		Wiki:   u.Wiki,
		Arch:   u.Archive,
		Client: u.Client(cfg.StudyTime),
		Ranks:  u.World,
	}
	records := study.Collect()
	fmt.Fprintf(os.Stderr, "sampled %d permanently dead links\n\n", len(records))
	n := float64(len(records))

	if *scenarios {
		runScenarioGrid(u, records)
		return
	}

	// --- §3: false-dead rate vs retry policy (fault-injected universe). ---
	var falseDeadPts []ablation.FalseDeadPoint
	if src.Flaky > 0 {
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
			log.Fatal(err)
		}
		if err := checkMonotone(falseDeadPts); err != nil {
			log.Fatalf("smoke FAILED: %v", err)
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
	qr := ablation.QueryPermutationRescue(u.Archive, records)
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
		log.Fatal(err)
	}
}

// runScenarioGrid sweeps the per-scenario × per-policy false-dead
// grid, prints it, emits one `go test -bench`-format line per cell
// (the machine-readable form of the table), and enforces its expected
// shape.
func runScenarioGrid(u *persist.Bundle, records []core.LinkRecord) {
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
		log.Fatalf("scenario grid FAILED: %v", err)
	}
	fmt.Fprintln(os.Stderr, "scenario grid OK: retries rescue flaky, confirmation rescues paywall/geo-block, nothing rescues parking")
}

// checkGrid enforces the grid's robustness shape: the retry ladder
// strictly improves on flaky windows (the PR 5 invariant), same-day
// retries do NOT help against rate-1 paywalls/geo-blocks while spaced
// confirmation escapes their windows entirely, and parking (a 200
// with a parked body) fools every status-based rung equally.
func checkGrid(g *ablation.ScenarioGrid) error {
	// fd[scenario] is its false-dead count under single, retry, confirm.
	fd := map[string][3]int{}
	for _, sc := range []string{"flaky", "paywall", "geoblock", "parking"} {
		var row [3]int
		for j, p := range []string{"single", "retry", "confirm"} {
			c := g.Cell(sc, p)
			if c == nil {
				return fmt.Errorf("grid is missing cell %s/%s", sc, p)
			}
			row[j] = c.FalseDead
		}
		fd[sc] = row
	}

	if f := fd["flaky"]; !(f[0] > f[1] && f[1] > f[2]) {
		return fmt.Errorf("flaky row should strictly decrease up the ladder, got %d/%d/%d", f[0], f[1], f[2])
	}
	for _, key := range []string{"paywall", "geoblock"} {
		single, retry, confirm := fd[key][0], fd[key][1], fd[key][2]
		if single == 0 {
			return fmt.Errorf("%s scenario did not bite (0 false-dead under single GET)", key)
		}
		if retry != single {
			return fmt.Errorf("same-day retries should not rescue rate-1 %s links, got %d vs %d", key, retry, single)
		}
		if confirm != 0 {
			return fmt.Errorf("spaced confirmation should escape the %s window, got %d false-dead", key, confirm)
		}
	}
	p := fd["parking"]
	if p[0] == 0 {
		return fmt.Errorf("parking scenario did not bite")
	}
	if p[0] != p[1] || p[0] != p[2] {
		return fmt.Errorf("parking should fool every status-based rung equally, got %d/%d/%d", p[0], p[1], p[2])
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
