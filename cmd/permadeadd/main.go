// Command permadeadd serves link-status queries over a simulated
// universe: Wayback-style availability lookups, live-web verdicts,
// and the full per-link study classification, each as an HTTP
// endpoint (see internal/service for the API).
//
// Usage:
//
//	permadeadd [-addr host:port] [-addr-file file]
//	           [-scale f] [-seed n] [-sample n] [-load file]
//	           [-max-inflight n] [-request-timeout d] [-cache-entries n]
//	           [-drain-timeout d]
//	           [-flaky f] [-flaky-rate f] [-flaky-stream-days n]
//	           [-no-monitor] [-monitor-ttl days] [-journal file] [-repair]
//	           [-shard-name s -shard-members a,b,c] [-archives manifest.json]
//
// Those twenty flags are the whole option surface: every other serving
// size (worker pools, negative cache, memo, SSE buffers, journal
// window, batch bound, ring virtual nodes) is a constant or derived
// from -max-inflight in internal/service, and a federation's budget,
// hedge fraction and time scale are fields of the -archives manifest.
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
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"permadead/internal/federation"
	"permadead/internal/persist"
	"permadead/internal/service"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("permadeadd: ")
	cfg := service.DefaultConfig()
	src := persist.NewSource(0.25)
	src.Register(flag.CommandLine)
	var (
		addr     = flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
		addrFile = flag.String("addr-file", "", "write the bound address to this file once listening (for scripts)")
		sample   = flag.Int("sample", 0, "sample size override (0 = scaled default)")

		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight requests")

		shardMembers = flag.String("shard-members", "", "comma-separated fleet member names, identical on every shard and the router")
		archivesPath = flag.String("archives", "", "federate archive reads across the member manifest in this JSON file (see 'worldgen -archives'; budget, hedge fraction and time scale are manifest fields); empty serves the bare archive")
	)
	flag.IntVar(&src.FlakyStreamDays, "flaky-stream-days", 0, "extend flaky fault windows this many days past the study day (continuous flip supply for the monitor)")
	// Options that are service.Config fields parse straight into cfg.
	flag.IntVar(&cfg.MaxInFlight, "max-inflight", cfg.MaxInFlight, "bound on concurrently admitted requests; classification runs on half of it, one batch fans out over a quarter")
	flag.DurationVar(&cfg.RequestTimeout, "request-timeout", cfg.RequestTimeout, "per-request deadline (admission wait included)")
	flag.IntVar(&cfg.CacheEntries, "cache-entries", cfg.CacheEntries, "response cache capacity in entries (0 disables)")
	flag.BoolVar(&cfg.DisableMonitor, "no-monitor", false, "disable the continuous verdict monitor and its endpoints")
	flag.IntVar(&cfg.MonitorTTLDays, "monitor-ttl", cfg.MonitorTTLDays, "days before a warm verdict goes stale and is re-checked")
	flag.StringVar(&cfg.JournalPath, "journal", "", "append verdict flips to this NDJSON file (empty = in-memory only; SSE resume cursors older than the in-memory window replay from it)")
	flag.BoolVar(&cfg.EnableRepair, "repair", false, "run the IABot repair loop: rescue links that flip to dead with archive URLs")
	flag.StringVar(&cfg.ShardName, "shard-name", "", "run as this member of a sharded fleet (requires -shard-members)")
	flag.Parse()

	start := time.Now()
	bundle, err := src.Open()
	if err != nil {
		log.Fatal(err)
	}
	loadDur := time.Since(start)
	defer bundle.Close()

	cfg.Study.Seed = src.Seed
	cfg.Study.SampleSize = bundle.Params.SampleSize
	if *sample > 0 {
		cfg.Study.SampleSize = *sample
	}
	cfg.Study.CrawlArticles = 0
	if cfg.ShardName != "" {
		if *shardMembers == "" {
			log.Fatal("-shard-name requires -shard-members")
		}
		for _, m := range strings.Split(*shardMembers, ",") {
			if m = strings.TrimSpace(m); m != "" {
				cfg.ShardMembers = append(cfg.ShardMembers, m)
			}
		}
	}
	if *archivesPath != "" {
		m, err := federation.LoadManifest(*archivesPath)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Federation = &m
	}

	// Startup-phase timing: load (or generate), freeze (service.New
	// freezes the archive and collects the sample), listen. One log
	// line here, and the same numbers under /metrics "startup_ms".
	freezeStart := time.Now()
	srv, err := service.New(bundle, cfg)
	if err != nil {
		log.Fatal(err)
	}
	freezeDur := time.Since(freezeStart)
	listenStart := time.Now()
	if err := srv.Start(*addr); err != nil {
		log.Fatal(err)
	}
	listenDur := time.Since(listenStart)
	srv.RecordStartup(loadDur, freezeDur, listenDur)
	log.Printf("startup load=%dms freeze=%dms listen=%dms total=%dms",
		loadDur.Milliseconds(), freezeDur.Milliseconds(), listenDur.Milliseconds(),
		(loadDur + freezeDur + listenDur).Milliseconds())
	log.Printf("serving %d sampled links on http://%s", srv.SampleSize(), srv.Addr())
	if cfg.ShardName != "" {
		log.Printf("fleet member %s of [%s]", cfg.ShardName, *shardMembers)
	}
	if cfg.Federation != nil {
		log.Printf("federating %d archive members (budget %dms, hedge %.2f)",
			len(cfg.Federation.Members), cfg.Federation.BudgetMS, cfg.Federation.HedgeFraction)
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(srv.Addr()+"\n"), 0o644); err != nil {
			log.Fatal(err)
		}
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	sig := <-sigs
	log.Printf("%v received, draining (up to %v)...", sig, *drainTimeout)

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Fatalf("drain incomplete: %v", err)
	}
	log.Print("drained cleanly")
}
