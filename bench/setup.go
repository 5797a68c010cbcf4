package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"permadead/internal/archive"
	"permadead/internal/core"
	"permadead/internal/fetch"
	"permadead/internal/persist"
	"permadead/internal/report"
	"permadead/internal/simweb"
	"permadead/internal/worldgen"
)

// fixture is what set-up leaves behind for the workloads: the main
// universe as a paged file, the flaky one in memory, and the offline
// oracle every served answer is checked against.
type fixture struct {
	mainPath string // the universe every workload but monitor_stream serves
	// flaky has every site flaky past the study day: the monitor's flip
	// supply. It stays in memory because the paged format does not
	// round-trip fault windows (save4.go writes 36-byte fault records,
	// paged.go reads them with a 32-byte stride), so a paged flaky
	// universe cannot be served; see README.md.
	flaky    *worldgen.Universe
	params   worldgen.Params
	oracle   *oracle
	universe *worldgen.Universe // kept only for the traced run's in-memory comparison

	// Per-layer set-up timings (persist.*, worldgen.* metrics).
	generateS      float64
	generateFlakyS float64
	savePagedS     float64
	fileMB         float64
}

// oracle holds the sequential study's answer for every sampled link,
// keyed by URL, plus the report digest study_full rounds must match.
type oracle struct {
	urls      []string // sample order
	articles  []string // citing article, index-aligned with urls
	verdict   map[string]core.Verdict
	liveCat   map[string]string
	cacheable map[string]bool // live outcome not transient: the server will cache it
	available map[string]bool
	digest    string
}

// universeSeed is the worldgen and study-sampling seed of every run.
// The run's --seed derives every op schedule — which links are asked
// for, in what order — but the universe and the sampled population are
// held fixed: generated universes differ by 30 % in study cost from
// seed to seed (a handful of large domains decide the spatial stage)
// and samples of one universe by 10 % in serving cost, and the driver
// takes a metric's spread across seeds, so seeding either would bury
// the bounds in input variance.
const universeSeed = 1

// studyConfig is the one study configuration shared by the oracle, the
// study_full rounds and every server, so all of them sample the same
// link population.
func (fx *fixture) studyConfig(conc int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = universeSeed
	cfg.SampleSize = fx.params.SampleSize
	cfg.CrawlArticles = 0
	cfg.Concurrency = conc
	return cfg
}

// newStudy builds a cold study (empty memo) over an opened bundle.
func newStudy(b *persist.Bundle, cfg core.Config) *core.Study {
	b.Archive.Freeze()
	return &core.Study{
		Config: cfg,
		Wiki:   b.Wiki,
		Arch:   b.Archive,
		Client: fetch.New(simweb.NewTransport(b.World, cfg.StudyTime)),
		Ranks:  b.World,
	}
}

// reportDigest hashes the rendered report and the per-link verdicts:
// two runs with the same digest reached the same conclusions link by
// link.
func reportDigest(r *core.Report) (string, error) {
	var buf bytes.Buffer
	if err := report.WriteMarkdown(&buf, r, report.Options{IncludeFigures: true}); err != nil {
		return "", err
	}
	for i, v := range r.Verdicts {
		fmt.Fprintf(&buf, "%s %s\n", r.Records[i].URL, v)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// availabilityQuery is the lookup /v1/availability performs with no
// knobs set: closest usable copy to the study day, unbounded budget.
func availabilityQuery(url string, cfg core.Config) archive.AvailabilityQuery {
	return archive.AvailabilityQuery{URL: url, Want: cfg.StudyTime, Accept: archive.AcceptUsable}
}

func savePaged(path string, u *worldgen.Universe) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := persist.SavePaged(f, persist.FromUniverse(u)); err != nil {
		f.Close()
		return fmt.Errorf("saving %s: %w", path, err)
	}
	return f.Close()
}

// setUp generates both universes, writes the main one as a paged file
// under dir, and runs the sequential oracle study. keepMain retains the
// generated main universe in memory.
func setUp(dir string, scale float64, keepMain bool) (*fixture, error) {
	fx := &fixture{mainPath: filepath.Join(dir, "main.pd4")}

	p := worldgen.DefaultParams().Scale(scale)
	p.Seed = universeSeed
	fx.params = p
	t0 := time.Now()
	u := worldgen.Generate(p)
	fx.generateS = time.Since(t0).Seconds()
	t0 = time.Now()
	if err := savePaged(fx.mainPath, u); err != nil {
		return nil, err
	}
	fx.savePagedS = time.Since(t0).Seconds()
	if st, err := os.Stat(fx.mainPath); err == nil {
		fx.fileMB = float64(st.Size()) / 1e6
	}
	if keepMain {
		fx.universe = u
	}

	fp := worldgen.DefaultParams().Scale(scale * flakyShare)
	fp.Seed = universeSeed
	fp.FlakySiteFrac = 1
	fp.FlakyRate = 0.7
	fp.FlakyStreamDays = 3650
	t0 = time.Now()
	fx.flaky = worldgen.Generate(fp)
	fx.generateFlakyS = time.Since(t0).Seconds()

	o, err := buildOracle(fx)
	if err != nil {
		return nil, err
	}
	fx.oracle = o
	return fx, nil
}

// buildOracle runs the study sequentially (Concurrency 1) over the
// paged main universe and records every per-link answer.
func buildOracle(fx *fixture) (*oracle, error) {
	b, err := persist.OpenPaged(fx.mainPath)
	if err != nil {
		return nil, err
	}
	defer b.Close()
	cfg := fx.studyConfig(1)
	r, err := newStudy(b, cfg).Run(context.Background())
	if err != nil {
		return nil, fmt.Errorf("oracle study: %w", err)
	}
	o := &oracle{
		verdict:   make(map[string]core.Verdict, r.N()),
		liveCat:   make(map[string]string, r.N()),
		cacheable: make(map[string]bool, r.N()),
		available: make(map[string]bool, r.N()),
	}
	if o.digest, err = reportDigest(r); err != nil {
		return nil, err
	}
	for i, rec := range r.Records {
		// Copy the strings: the records alias the mapping Close releases.
		url, art := strings.Clone(rec.URL), strings.Clone(rec.Article)
		o.urls = append(o.urls, url)
		o.articles = append(o.articles, art)
		o.verdict[url] = r.Verdicts[i]
		live := r.LiveResults[i]
		o.liveCat[url] = live.Category.String()
		ls := core.LiveStatus{Category: live.Category.String(), FinalStatus: live.FinalStatus}
		o.cacheable[url] = !ls.Transient()
		_, ok, err := b.Archive.Query(availabilityQuery(rec.URL, cfg))
		if err != nil {
			return nil, fmt.Errorf("oracle availability %s: %w", url, err)
		}
		o.available[url] = ok
	}
	return o, nil
}
