// Command deadlinkstudy reproduces the IMC 2022 study end to end: it
// generates the simulated universe (web + Wikipedia + archive), runs
// the IABot timeline, executes the measurement pipeline, and prints
// every table and figure the paper reports, followed by a
// paper-vs-measured comparison.
//
// Usage:
//
//	deadlinkstudy [-scale f] [-seed n] [-load file]
//	              [-random] [-quiet] [-figs dir [-compare]] [-md file] [-timeout d]
//
// -scale 1.0 regenerates the full 10,000-link study (about 6 s of
// timeline simulation on two cores, then under half a second to
// measure); -scale 0.1 gives a 1,000-link study in under a second. A
// study over a flaky universe loads one: 'worldgen -flaky f -save u',
// then 'deadlinkstudy -load u'.
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
	src.Register(flag.CommandLine, "scale", "seed", "load")
	var (
		random  = flag.Bool("random", false, "sample links across random articles (the paper's September 2022 representativeness check)")
		quiet   = flag.Bool("quiet", false, "print only the paper-vs-measured comparison")
		figs    = flag.String("figs", "", "also write SVG figures into this directory")
		md      = flag.String("md", "", "write a Markdown experiment report to this file")
		compare = flag.Bool("compare", false, "with -figs: also run the random sample and write both-sample overlays (the paper's Figure 3/4 style)")
		timeout = flag.Duration("timeout", 15*time.Minute, "overall run timeout")
	)
	flag.Parse()
	if *compare && *figs == "" {
		log.Print("-compare requires -figs")
		os.Exit(2)
	}

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
	cfg.CrawlArticles = 0
	cfg.RandomArticles = *random

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
