package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
)

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which
// is how the driver takes a metric's run-to-run spread.
func quartiles(values []float64) (q1, q3 float64) {
	s := sortedCopy(values)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	q1, q3 := quartiles(values)
	return (q3 - q1) / median(values)
}

func loadResultSet(path string) (map[string]map[string][]float64, map[string][2]int, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var set resultSet
	if err := json.Unmarshal(raw, &set); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	values := make(map[string]map[string][]float64)
	ops := make(map[string][2]int) // workload → failed, attempted
	for _, run := range set.Runs {
		if values[run.Workload] == nil {
			values[run.Workload] = make(map[string][]float64)
		}
		for name, mv := range run.Result.Metrics {
			values[run.Workload][name] = append(values[run.Workload][name], mv.Value)
		}
		o := ops[run.Workload]
		ops[run.Workload] = [2]int{o[0] + run.Result.Failed, o[1] + run.Result.Attempted}
	}
	return values, ops, nil
}

var errRegressed = errors.New("at least one metric regressed")

// runCompare prints one row per (workload, end-to-end metric): both
// medians, the relative difference, the bound, and a verdict. A metric
// whose run-to-run spread is wider than its bound is unresolved, not
// unchanged, unless every run of b reads better than every run of a.
// Any rise in failed ÷ attempted is a regression.
func runCompare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare takes two result sets, got %d arguments", len(args))
	}
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	a, aOps, err := loadResultSet(args[0])
	if err != nil {
		return err
	}
	b, bOps, err := loadResultSet(args[1])
	if err != nil {
		return err
	}
	var names []string
	for name := range a {
		if _, ok := b[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)

	regressed := false
	fmt.Printf("%-15s %-15s %14s %14s %8s %6s %7s  %s\n", "workload", "metric", "a median", "b median", "diff", "bound", "spread", "verdict")
	for _, wl := range names {
		for _, def := range bf.EndToEnd {
			av, bv := a[wl][def.Name], b[wl][def.Name]
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			ma, mb := median(av), median(bv)
			diff := (mb - ma) / ma
			worse := diff
			if def.Better == "higher" {
				worse = -diff
			}
			sp := max(spread(av), spread(bv))
			verdict := "ok"
			switch {
			case sp > def.Bound && !allBetter(av, bv, def.Better):
				verdict = "unresolved"
			case sp <= def.Bound && worse > def.Bound:
				verdict = "regressed"
				regressed = true
			}
			fmt.Printf("%-15s %-15s %14.4f %14.4f %+7.1f%% %5.0f%% %6.1f%%  %s\n", wl, def.Name, ma, mb, diff*100, def.Bound*100, sp*100, verdict)
		}
		fa := float64(aOps[wl][0]) / float64(max(aOps[wl][1], 1))
		fb := float64(bOps[wl][0]) / float64(max(bOps[wl][1], 1))
		verdict := "ok"
		if fb > fa {
			verdict = "regressed"
			regressed = true
		}
		fmt.Printf("%-15s %-15s %14.6f %14.6f %8s %6s %7s  %s\n", wl, "op_fail_ratio", fa, fb, "", "0%", "", verdict)
	}
	if regressed {
		return errRegressed
	}
	return nil
}

// allBetter reports whether every run of b reads better than every run
// of a.
func allBetter(a, b []float64, better string) bool {
	sa, sb := sortedCopy(a), sortedCopy(b)
	if better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}
