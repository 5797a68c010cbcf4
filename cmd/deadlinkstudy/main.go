// Command deadlinkstudy reproduces the IMC 2022 study end to end: it
// generates the simulated universe (web + Wikipedia + archive), runs
// the IABot timeline, executes the measurement pipeline, and prints
// every table and figure the paper reports, followed by a
// paper-vs-measured comparison.
//
// Usage:
//
//	deadlinkstudy [-scale f] [-seed n] [-flaky f] [-flaky-rate f] [-load file]
//	              [-sample n] [-random] [-quiet] [-figs dir] [-compare] [-md file]
//	              [-retries n] [-confirm-checks n] [-confirm-spacing days] [-timeout d]
//
// -scale 1.0 regenerates the full 10,000-link study (≈30s of timeline
// simulation); -scale 0.1 gives a 1,000-link study in a few seconds.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"permadead/internal/core"
	"permadead/internal/figures"
	"permadead/internal/persist"
	mdreport "permadead/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("deadlinkstudy: ")
	src := persist.NewSource(0.25)
	src.Register(flag.CommandLine)
	var (
		sample  = flag.Int("sample", 0, "sample size override (0 = scaled default)")
		random  = flag.Bool("random", false, "sample links across random articles (the paper's September 2022 representativeness check)")
		quiet   = flag.Bool("quiet", false, "print only the paper-vs-measured comparison")
		figs    = flag.String("figs", "", "also write SVG figures into this directory")
		md      = flag.String("md", "", "write a Markdown experiment report to this file")
		compare = flag.Bool("compare", false, "with -figs: also run the random sample and write both-sample overlays (the paper's Figure 3/4 style)")
		timeout = flag.Duration("timeout", 15*time.Minute, "overall run timeout")

		retries        = flag.Int("retries", 1, "max fetch attempts per live check (1 = the paper's single GET)")
		confirmChecks  = flag.Int("confirm-checks", 1, "IABot-style confirmation checks before a dead verdict (1 = single check)")
		confirmSpacing = flag.Int("confirm-spacing", 30, "simulated days between confirmation checks")
	)
	flag.Parse()

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	bundle, err := src.Open()
	if err != nil {
		log.Fatal(err)
	}
	defer bundle.Close()

	cfg := core.DefaultConfig()
	cfg.Seed = src.Seed
	cfg.SampleSize = bundle.Params.SampleSize
	if *sample > 0 {
		cfg.SampleSize = *sample
	}
	cfg.CrawlArticles = 0
	cfg.RandomArticles = *random
	cfg.Retries = *retries
	cfg.ConfirmChecks = *confirmChecks
	cfg.ConfirmSpacingDays = *confirmSpacing

	study := &core.Study{
		Config: cfg,
		Wiki:   bundle.Wiki,
		Arch:   bundle.Archive,
		Client: bundle.Client(cfg.StudyTime),
		Ranks:  bundle.World,
	}

	fmt.Fprintf(os.Stderr, "running study pipeline...\n")
	start := time.Now()
	report, err := study.Run(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "measured %d links in %.1fs\n\n", report.N(), time.Since(start).Seconds())

	if !*quiet {
		fmt.Println(report.Render())
		fmt.Println()
	}
	fmt.Println(report.RenderComparison())

	if *md != "" {
		f, err := os.Create(*md)
		if err != nil {
			log.Fatal(err)
		}
		err = mdreport.WriteMarkdown(f, report, mdreport.Options{
			Title:          "Experiments — paper vs. measured",
			Command:        strings.Join(os.Args, " "),
			IncludeFigures: true,
		})
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote Markdown report to %s\n", *md)
	}

	if *figs != "" {
		paths, err := figures.WriteAll(report, *figs)
		if err != nil {
			log.Fatal(err)
		}
		if *compare {
			cfg2 := cfg
			cfg2.RandomArticles = true
			cfg2.Seed = cfg.Seed + 1000
			study2 := &core.Study{
				Config: cfg2,
				Wiki:   bundle.Wiki,
				Arch:   bundle.Archive,
				Client: bundle.Client(cfg.StudyTime),
				Ranks:  bundle.World,
			}
			fmt.Fprintf(os.Stderr, "running random representativeness sample...\n")
			report2, err := study2.Run(ctx)
			if err != nil {
				log.Fatal(err)
			}
			for name, svg := range figures.CompareReport(report, report2) {
				path := filepath.Join(*figs, name)
				if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
					log.Fatal(err)
				}
				paths = append(paths, path)
			}
		}
		fmt.Fprintf(os.Stderr, "wrote %d SVG figures to %s\n", len(paths), *figs)
	}
}
