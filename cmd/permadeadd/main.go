// Command permadeadd serves link-status queries over a simulated
// universe: Wayback-style availability lookups, live-web verdicts,
// and the full per-link study classification, each as an HTTP
// endpoint (see internal/service for the API).
//
// Usage:
//
//	permadeadd [-addr host:port] [-scale f] [-seed n] [-load file]
//	           [-flaky f] [-flaky-stream-days n] [-monitor-ttl days]
//	           [-journal file] [-repair]
//	           [-archives manifest.json] [-fed-budget ms] [-fed-hedge f]
//
// The universe is generated at startup (or loaded from a 'worldgen
// -save' file); the server then answers queries until SIGINT/SIGTERM,
// at which point it drains gracefully: in-flight requests complete,
// new ones get 503. Universe files are mmap'd and served
// page-on-demand, so cold start is milliseconds and resident memory
// tracks the touched working set.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"permadead/internal/federation"
	"permadead/internal/persist"
	"permadead/internal/service"
	"permadead/internal/worldgen"
)

func main() {
	defaults := service.DefaultConfig()
	var (
		addr     = flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
		addrFile = flag.String("addr-file", "", "write the bound address to this file once listening (for scripts)")
		scale    = flag.Float64("scale", 0.25, "universe scale relative to the paper's 10,000-link study")
		seed     = flag.Int64("seed", 1, "generation and sampling seed")
		sample   = flag.Int("sample", 0, "sample size override (0 = scaled default)")
		load     = flag.String("load", "", "serve a universe saved by 'worldgen -save' instead of generating one")

		maxInFlight     = flag.Int("max-inflight", defaults.MaxInFlight, "bound on concurrently admitted requests")
		classifyWorkers = flag.Int("classify-workers", defaults.ClassifyWorkers, "bound on concurrent classifications")
		reqTimeout      = flag.Duration("request-timeout", defaults.RequestTimeout, "per-request deadline (admission wait included)")
		cacheEntries    = flag.Int("cache-entries", defaults.CacheEntries, "response cache capacity in entries (0 disables)")
		cacheShards     = flag.Int("cache-shards", defaults.CacheShards, "response cache shard count")
		negCacheEntries = flag.Int("neg-cache-entries", defaults.NegCacheEntries, "negative-result cache capacity in entries (0 disables)")
		maxBatch        = flag.Int("max-batch", defaults.MaxBatchLinks, "max links per /v1/classify/batch request")
		batchWorkers    = flag.Int("batch-workers", defaults.BatchWorkers, "per-batch classify fan-out (clamped to -classify-workers)")
		memoCap         = flag.Int("memo-cap", defaults.MemoCap, "per-map entry bound on the archive memo (0 = unbounded)")
		drainTimeout    = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight requests")

		flaky           = flag.Float64("flaky", -1, "fraction of sites with recurring fault windows (generated universes only; <0 keeps the scaled default)")
		flakyRate       = flag.Float64("flaky-rate", -1, "per-window error rate on flaky sites (<0 keeps the default)")
		flakyStreamDays = flag.Int("flaky-stream-days", 0, "extend flaky fault windows this many days past the study day (continuous flip supply for the monitor)")

		noMonitor      = flag.Bool("no-monitor", false, "disable the continuous verdict monitor and its endpoints")
		monitorTTL     = flag.Int("monitor-ttl", defaults.MonitorTTLDays, "days before a warm verdict goes stale and is re-checked")
		monitorWorkers = flag.Int("monitor-checkers", defaults.MonitorCheckers, "concurrent re-check workers in the monitor")
		sseBuffer      = flag.Int("sse-buffer", defaults.SSESubscriberBuffer, "per-subscriber event buffer; slow consumers past it are dropped")
		maxSubs        = flag.Int("max-subscribers", defaults.MaxSSESubscribers, "bound on concurrent /v1/stream/verdicts subscribers")
		journalPath    = flag.String("journal", "", "append verdict flips to this NDJSON file (empty = in-memory only)")
		journalWindow  = flag.Int("journal-window", defaults.JournalWindow, "in-memory flip-journal window; older SSE resume cursors replay from -journal or get 410 (0 = unbounded)")
		repair         = flag.Bool("repair", false, "run the IABot repair loop: rescue links that flip to dead with archive URLs")

		shardName    = flag.String("shard-name", "", "run as this member of a sharded fleet (requires -shard-members)")
		shardMembers = flag.String("shard-members", "", "comma-separated fleet member names, identical on every shard and the router")
		shardVNodes  = flag.Int("shard-vnodes", 0, "consistent-hash virtual nodes per member (0 = default)")

		archivesPath = flag.String("archives", "", "federate archive reads across the member manifest in this JSON file (see 'worldgen -archives'); empty serves the bare archive")
		fedBudget    = flag.Int("fed-budget", -1, "federation-wide lookup budget in ms, overriding the manifest (<0 keeps the manifest's; 0 = unbounded)")
		fedHedge     = flag.Float64("fed-hedge", -1, "hedge deadline as a fraction of the budget, overriding the manifest (<0 keeps the manifest's)")
		fedTimeScale = flag.Float64("fed-timescale", -1, "wall-clock seconds per simulated second for federated lookups, overriding the manifest (<0 keeps the manifest's; 0 = instant)")
	)
	flag.Parse()

	var bundle *persist.Bundle
	var loadDur time.Duration
	if *load != "" {
		start := time.Now()
		b, err := persist.OpenPaged(*load)
		if err != nil {
			fatal(err)
		}
		bundle = b
		loadDur = time.Since(start)
	} else {
		params := worldgen.DefaultParams().Scale(*scale)
		params.Seed = *seed
		if *flaky >= 0 {
			params.FlakySiteFrac = *flaky
		}
		if *flakyRate >= 0 {
			params.FlakyRate = *flakyRate
		}
		if *flakyStreamDays > 0 {
			params.FlakyStreamDays = *flakyStreamDays
		}
		fmt.Fprintf(os.Stderr, "generating universe (scale %.2f, seed %d)...\n", *scale, *seed)
		start := time.Now()
		u := worldgen.Generate(params)
		loadDur = time.Since(start)
		fmt.Fprintf(os.Stderr, "generated in %.1fs\n", loadDur.Seconds())
		bundle = persist.FromUniverse(u)
	}
	defer bundle.Close()

	cfg := defaults
	cfg.Study.Seed = *seed
	cfg.Study.SampleSize = bundle.Params.SampleSize
	if *sample > 0 {
		cfg.Study.SampleSize = *sample
	}
	cfg.Study.CrawlArticles = 0
	cfg.MaxInFlight = *maxInFlight
	cfg.ClassifyWorkers = *classifyWorkers
	cfg.RequestTimeout = *reqTimeout
	cfg.CacheEntries = *cacheEntries
	cfg.CacheShards = *cacheShards
	cfg.NegCacheEntries = *negCacheEntries
	cfg.MaxBatchLinks = *maxBatch
	cfg.BatchWorkers = *batchWorkers
	cfg.MemoCap = *memoCap
	cfg.DisableMonitor = *noMonitor
	cfg.MonitorTTLDays = *monitorTTL
	cfg.MonitorCheckers = *monitorWorkers
	cfg.SSESubscriberBuffer = *sseBuffer
	cfg.MaxSSESubscribers = *maxSubs
	cfg.JournalPath = *journalPath
	cfg.JournalWindow = *journalWindow
	cfg.EnableRepair = *repair
	if *shardName != "" {
		if *shardMembers == "" {
			fatal(fmt.Errorf("-shard-name requires -shard-members"))
		}
		cfg.ShardName = *shardName
		for _, m := range strings.Split(*shardMembers, ",") {
			if m = strings.TrimSpace(m); m != "" {
				cfg.ShardMembers = append(cfg.ShardMembers, m)
			}
		}
		cfg.ShardVNodes = *shardVNodes
	}
	if *archivesPath != "" {
		m, err := federation.LoadManifest(*archivesPath)
		if err != nil {
			fatal(err)
		}
		if *fedBudget >= 0 {
			m.BudgetMS = *fedBudget
		}
		if *fedHedge >= 0 {
			m.HedgeFraction = *fedHedge
		}
		if *fedTimeScale >= 0 {
			m.TimeScale = *fedTimeScale
		}
		if err := m.Validate(); err != nil {
			fatal(err)
		}
		cfg.Federation = &m
	}

	// Startup-phase timing: load (or generate), freeze (service.New
	// freezes the archive and collects the sample), listen. One log
	// line here, and the same numbers under /metrics "startup_ms".
	freezeStart := time.Now()
	srv, err := service.New(bundle, cfg)
	if err != nil {
		fatal(err)
	}
	freezeDur := time.Since(freezeStart)
	listenStart := time.Now()
	if err := srv.Start(*addr); err != nil {
		fatal(err)
	}
	listenDur := time.Since(listenStart)
	srv.RecordStartupPhase("load", loadDur)
	srv.RecordStartupPhase("freeze", freezeDur)
	srv.RecordStartupPhase("listen", listenDur)
	fmt.Fprintf(os.Stderr, "permadeadd: startup load=%dms freeze=%dms listen=%dms total=%dms\n",
		loadDur.Milliseconds(), freezeDur.Milliseconds(), listenDur.Milliseconds(),
		(loadDur + freezeDur + listenDur).Milliseconds())
	fmt.Fprintf(os.Stderr, "permadeadd: serving %d sampled links on http://%s\n", srv.SampleSize(), srv.Addr())
	if *shardName != "" {
		fmt.Fprintf(os.Stderr, "permadeadd: fleet member %s of [%s]\n", *shardName, *shardMembers)
	}
	if cfg.Federation != nil {
		fmt.Fprintf(os.Stderr, "permadeadd: federating %d archive members (budget %dms, hedge %.2f)\n",
			len(cfg.Federation.Members), cfg.Federation.BudgetMS, cfg.Federation.HedgeFraction)
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(srv.Addr()+"\n"), 0o644); err != nil {
			fatal(err)
		}
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	sig := <-sigs
	fmt.Fprintf(os.Stderr, "permadeadd: %v received, draining (up to %v)...\n", sig, *drainTimeout)

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fatal(fmt.Errorf("drain incomplete: %w", err))
	}
	fmt.Fprintln(os.Stderr, "permadeadd: drained cleanly")
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "permadeadd: %v\n", err)
	os.Exit(1)
}
