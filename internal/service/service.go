// Package service is permadead's serving layer: a long-running HTTP
// API answering link-status questions over a loaded or generated
// universe. It exposes the three queries the paper's findings revolve
// around —
//
//	GET /v1/availability?url=&ts=   closest-usable-snapshot lookup with
//	                                the §4.1 timeout and §4.2 3xx
//	                                policy as per-request knobs
//	GET /v1/status?url=             live-web verdict (§3: Figure 4
//	                                category + soft-404 probe)
//	GET /v1/classify?url=           the full per-link study verdict
//	                                (alive / usable-copy-missed /
//	                                typo / coverage-gap / dead)
//	POST /v1/classify/batch         bulk classify: verdicts for up to
//	                                thousands of links per call,
//	                                streamed back as NDJSON in input
//	                                order as each completes
//
// plus /v1/sample (the sampled link population, for load generators),
// /metrics (expvar-based counters, latency histograms, cache and memo
// stats), and /healthz.
//
// On top of the batch queries, the server hosts the continuous verdict
// monitor (internal/monitor) unless DisableMonitor is set:
//
//	POST /v1/watch              watch links and/or articles (resolving
//	                            each article's current external links);
//	                            remove=true unwatches
//	GET  /v1/watched            the warm verdict table, sorted by URL
//	GET  /v1/stream/verdicts    Server-Sent Events feed of verdict
//	                            flips, resumable via Last-Event-ID
//	POST /v1/sim/tick           advance the simulated clock, running
//	                            every re-check that falls due
//	POST /v1/sim/edit           apply a wiki edit (the monitor ingests
//	                            the resulting link add/remove events)
//	GET  /v1/sim/article        an article's current revision and links
//
// Production shape: every /v1 request passes an admission-control
// semaphore bounding total in-flight work (waiters queue until their
// per-request deadline, then are shed with 503); classification
// additionally runs inside a smaller bounded worker pool, since it
// fans out into archive scans and live fetches. Every query that
// computes goes through one response cache (Cache), keyed by canonical
// URL + policy knobs: never-archived and no-snapshot answers live in a
// negative capacity class so they cannot evict positive results, and
// concurrent identical requests, across the single-link and batch
// endpoints, wait on one in-flight computation. Underneath, the frozen
// archive's Bloom prefilter answers "no captures" without touching CDX
// indexes. Errors use one JSON envelope. Shutdown drains: in-flight
// requests complete while new ones get 503.
package service

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"permadead/internal/core"
	"permadead/internal/edge"
	"permadead/internal/federation"
	"permadead/internal/fetch"
	"permadead/internal/iabot"
	"permadead/internal/journal"
	"permadead/internal/monitor"
	"permadead/internal/persist"
	"permadead/internal/shard"
	"permadead/internal/simclock"
	"permadead/internal/urlutil"
	"permadead/internal/wikimedia"
)

// Config tunes the server. The zero value is unusable; start from
// DefaultConfig.
type Config struct {
	// Study configures sampling for the served universe (sample size,
	// seed, crawl bounds, study day). The server collects the link
	// population once at startup.
	Study core.Config

	// MaxInFlight bounds concurrently admitted /v1 requests. Requests
	// beyond it queue until a slot frees or their deadline expires. The
	// classification worker pool nested inside that gate is half of it
	// (classification is the heavy endpoint: live fetch + soft-404 probe
	// + archive scans), and one batch fans out over half the pool.
	MaxInFlight int
	// CacheEntries bounds the response cache's positive class (0
	// disables it; a request still coalesces onto an identical one in
	// flight); CacheShards is the cache's shard count. The negative
	// class is sized by negCacheEntries.
	CacheEntries int
	CacheShards  int

	// DisableMonitor turns off the continuous verdict monitor and its
	// endpoints (/v1/watch, /v1/watched, /v1/stream/verdicts, /v1/sim/*).
	DisableMonitor bool
	// MonitorTTLDays is the warm verdict table's re-check cadence: a
	// settled verdict is re-measured this many simulated days after its
	// last check (sooner when a fault window makes it suspect).
	MonitorTTLDays int
	// SSESubscriberBuffer is each /v1/stream/verdicts subscriber's
	// bounded event buffer; a subscriber that falls this far behind is
	// dropped and flagged rather than ever blocking the monitor.
	SSESubscriberBuffer int
	// JournalPath, when set, appends every verdict flip to this NDJSON
	// file (sequence numbers resume from its existing entries); empty
	// keeps the journal in memory only.
	JournalPath string
	// JournalWindow bounds how many flip entries the journal keeps in
	// memory (0 = unbounded). An SSE resume cursor older than the
	// window replays from the JournalPath file when one is configured;
	// without a file the stream answers 410 Gone instead of silently
	// skipping the evicted flips.
	JournalWindow int
	// EnableRepair runs IABot's single-link maintenance pass over every
	// watched article citing a link that flips to dead: the citation is
	// patched with a usable archived copy or tagged {{dead link}}.
	EnableRepair bool

	// ShardName, when set, runs this server as one member of a sharded
	// fleet: the /v1/shard admin endpoints activate and /v1/sample
	// gains a view=owned filter restricted to the registrable domains
	// this member owns on the fleet's consistent-hash ring. The shard
	// still serves the full universe on the verdict endpoints —
	// ownership shapes only the population view — which is what makes
	// restart-free rebalancing possible. ShardMembers lists every
	// fleet member name (must include ShardName); the ring is built
	// with shard.DefaultVNodes virtual nodes per member, as the router's.
	ShardName    string
	ShardMembers []string

	// Federation, when set, federates the server's archive reads across
	// the manifest's member views of the bundle archive: /v1/availability
	// becomes a hedged multi-archive lookup, classification consults the
	// members' union view, and the /v1/federation admin endpoints
	// activate. Nil serves the bare archive (the paper's single-archive
	// pipeline); a single-member manifest is the identity federation and
	// keeps every response byte-identical to nil.
	Federation *federation.Manifest
}

// DefaultConfig returns production-shaped defaults over the paper's
// study configuration.
func DefaultConfig() Config {
	return Config{
		Study:        core.DefaultConfig(),
		MaxInFlight:  64,
		CacheEntries: 4096,
		CacheShards:  16,

		MonitorTTLDays:      30,
		SSESubscriberBuffer: 256,
		JournalWindow:       8192,
	}
}

// Sizes no deployment, bench workload or test has ever varied; each was
// a Config field and a permadeadd flag until only its default was left
// in use.
const (
	// requestTimeout is the deadline of every /v1 request, admission
	// wait included, and of each computation the response cache runs.
	requestTimeout = 10 * time.Second
	// negCacheEntries bounds the response cache's negative class —
	// "never archived" classify verdicts and "no usable snapshot"
	// availability answers. It is a separate capacity class so the
	// unbounded population of negative lookups cannot evict positive
	// results. Entries are cheap, so it runs larger than CacheEntries.
	negCacheEntries = 16384
	// memoCap bounds how many typo-probe candidate sets the study
	// memo holds (archive.NewMemoCapped).
	memoCap = 1 << 16
	// feedBuffer bounds the edit-event queue between the wiki and the
	// monitor. Events beyond it are dropped and counted (the EventStream
	// consumer-falls-behind failure mode), never blocking an editor.
	feedBuffer = 4096
)

// servedLink is one sampled link with the response-cache key of its
// classify body, built once so a cached verdict costs no key assembly.
type servedLink struct {
	rec         core.LinkRecord
	classifyKey string
}

// Server is the link-status query service.
type Server struct {
	cfg   Config
	study *core.Study

	// records maps canonical (scheme/www-agnostic) URL keys to the
	// sampled link records; order preserves sample order for /v1/sample.
	records map[string]servedLink
	order   []core.LinkRecord

	cache        *Cache     // response cache: both classes, coalescing
	edge         *edge.Edge // request wrapper, global gate, drain flag, metrics
	classifyPool *edge.Gate // classify worker pool, nested inside the gate
	batchWorkers int        // per-batch classify fan-out
	// retryStats aggregates fetch.Retrier activity across all
	// /v1/status requests that opt into a retry policy.
	retryStats *fetch.RetryStats

	httpSrv *http.Server
	ln      net.Listener
	started time.Time

	// Shard mode (ring holds nil when standalone): the fleet member
	// name this process serves as, the current ownership ring —
	// swapped atomically when the router pushes a rebalanced
	// RingState — and each sampled record's registrable domain,
	// precomputed once so the owned /v1/sample view filters without
	// re-deriving PSL domains per request.
	shardName     string
	ring          atomic.Pointer[shard.Ring]
	recordDomains []string

	// Federation mode (fed is nil when serving the bare archive).
	// fedEpoch counts member up/down flips; it rides in federated
	// availability cache keys so an admin flip invalidates answers
	// cached under the previous member population. The usable-coverage
	// gain over the sampled links is manifest-determined, so it is
	// computed once, on first /v1/federation/info request.
	fed         *federation.Federation
	fedEpoch    atomic.Int64
	fedGainOnce sync.Once
	fedGain     int

	// Continuous-monitor wiring (nil when DisableMonitor is set): the
	// live wiki for watch resolution and sim edits, the monitor itself,
	// its flip journal, and the opt-in repair bot.
	wiki *wikimedia.Wiki
	mon  *monitor.Monitor
	jrnl *journal.Journal
	bot  *iabot.Bot

	// testHookClassify, when set, runs inside every /v1/classify
	// handler after admission — tests use it to hold requests in
	// flight across a shutdown.
	testHookClassify func()
	// testHookStreamWrite, when set, runs before every SSE event write —
	// tests use it to stall the stream writer so the subscriber buffer
	// fills and the drop-and-flag path fires.
	testHookStreamWrite func()
}

// New builds a Server over a universe bundle. The bundle's archive is
// frozen (idempotently) so concurrent request handlers read the
// freeze-time CDX indexes lock-free; the link population is collected
// up front, exactly as a batch study would.
func New(b *persist.Bundle, cfg Config) (*Server, error) {
	if cfg.MaxInFlight <= 0 {
		return nil, fmt.Errorf("service: config requires MaxInFlight > 0 (got %d)", cfg.MaxInFlight)
	}
	classifyWorkers := max(1, cfg.MaxInFlight/2)
	b.Archive.Freeze()

	study := &core.Study{
		Config:  cfg.Study,
		Wiki:    b.Wiki,
		Arch:    b.Archive,
		Client:  b.Client(cfg.Study.StudyTime),
		Ranks:   b.World,
		MemoCap: memoCap,
	}
	var fed *federation.Federation
	if cfg.Federation != nil {
		var err error
		fed, err = federation.New(b.Archive, *cfg.Federation)
		if err != nil {
			return nil, fmt.Errorf("service: federation manifest: %w", err)
		}
		study.Fed = fed
	}

	records := study.Collect()
	if len(records) == 0 {
		return nil, fmt.Errorf("service: universe has no IABot-marked permanently dead links to serve")
	}

	s := &Server{
		cfg:          cfg,
		study:        study,
		records:      make(map[string]servedLink, len(records)),
		order:        records,
		cache:        newCache(cfg.CacheEntries, negCacheEntries, cfg.CacheShards),
		edge:         edge.New(cfg.MaxInFlight, requestTimeout),
		classifyPool: edge.NewGate(classifyWorkers),
		batchWorkers: max(1, classifyWorkers/2),
		retryStats:   new(fetch.RetryStats),
		started:      time.Now(),
		fed:          fed,
	}
	for _, rec := range records {
		key := urlutil.SchemeAgnosticKey(rec.URL)
		if _, dup := s.records[key]; !dup {
			s.records[key] = servedLink{rec: rec, classifyKey: "c\x00" + key}
		}
	}

	if cfg.ShardName != "" {
		if err := s.initShard(cfg); err != nil {
			return nil, err
		}
	}

	if !cfg.DisableMonitor {
		if err := s.startMonitor(b, cfg); err != nil {
			return nil, err
		}
	}

	s.edge.Publish("cache", func() any { return s.cache.Stats() })
	s.edge.Publish("negcache", func() any { return s.cache.classStats(cacheNegative) })
	s.edge.Publish("singleflight", func() any { return s.cache.flightStats() })
	s.edge.Publish("prefilter", func() any { return b.Archive.PrefilterStats() })
	s.edge.Publish("retry", func() any { return s.retryStats.Snapshot() })
	s.edge.Publish("memo", func() any { return s.study.Memo().Stats() })
	if s.fed != nil {
		s.edge.Publish("federation", func() any { return s.fed.Stats() })
	}
	s.edge.Publish("mem", func() any { return memSnapshot() })
	s.edge.Publish("admission", func() any {
		return map[string]any{
			"in_flight":         s.edge.Gate.InFlight(),
			"max_in_flight":     s.edge.Gate.Max(),
			"rejected":          s.edge.Gate.Rejected(),
			"classify_in_use":   s.classifyPool.InFlight(),
			"classify_workers":  s.classifyPool.Max(),
			"classify_rejected": s.classifyPool.Rejected(),
		}
	})
	return s, nil
}

// startMonitor wires the continuous verdict monitor over the bundle:
// a tickable clock starting at the study day, an edit-event feed
// attached to the wiki, the flip journal (file-backed when JournalPath
// is set), the live checker over the simulated web, and — with
// EnableRepair — an IABot instance invoked on flips to dead.
func (s *Server) startMonitor(b *persist.Bundle, cfg Config) error {
	s.wiki = b.Wiki
	jrnl := journal.New()
	if cfg.JournalPath != "" {
		var err error
		jrnl, err = journal.OpenFile(cfg.JournalPath)
		if err != nil {
			return fmt.Errorf("service: opening flip journal: %w", err)
		}
	}
	jrnl.SetWindow(cfg.JournalWindow)
	feed := wikimedia.NewFeed(feedBuffer)
	feed.Attach(b.Wiki)
	var repairer monitor.Repairer
	if cfg.EnableRepair {
		s.bot = iabot.New(b.Wiki, b.Archive, func(day simclock.Day) fetch.Fetcher {
			return b.Client(day, fetch.WithMaxBody(0))
		})
		repairer = s.bot
	}
	mon, err := monitor.New(monitor.Config{
		TTLDays:          cfg.MonitorTTLDays,
		SubscriberBuffer: cfg.SSESubscriberBuffer,
		Clock:            simclock.NewClock(cfg.Study.StudyTime),
		Checker:          &monitor.LiveChecker{World: b.World},
		Journal:          jrnl,
		Repairer:         repairer,
		Feed:             feed,
	})
	if err != nil {
		jrnl.Close() //nolint:errcheck // the monitor never started; nothing was written
		return err
	}
	s.mon, s.jrnl = mon, jrnl
	s.edge.Publish("monitor", func() any {
		st, err := mon.Stats()
		if err != nil {
			return map[string]string{"error": err.Error()}
		}
		return st
	})
	if s.bot != nil {
		s.edge.Publish("iabot", func() any { return s.bot.Stats() })
	}
	return nil
}

// RecordStartup publishes the serving binary's startup-phase durations
// (load or generate, freeze = New, listen = Start) under the /metrics
// key "startup_ms", so the cold-start profile is observable on a running
// server, not only in its boot log.
func (s *Server) RecordStartup(load, freeze, listen time.Duration) {
	ms := map[string]int64{
		"load_ms":   load.Milliseconds(),
		"freeze_ms": freeze.Milliseconds(),
		"listen_ms": listen.Milliseconds(),
		"total_ms":  (load + freeze + listen).Milliseconds(),
	}
	s.edge.Publish("startup_ms", func() any { return ms })
}

// SampleSize reports how many links the server can classify.
func (s *Server) SampleSize() int { return len(s.order) }

// Handler returns the full route tree (useful for tests and
// embedding).
func (s *Server) Handler() http.Handler { return s.routes() }

// Start listens on addr and serves in the background. Use Addr to
// learn the bound address (addr may end in ":0") and Shutdown to stop.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("service: listen %s: %w", addr, err)
	}
	s.ln = ln
	s.httpSrv = &http.Server{
		Handler:           s.routes(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	go s.httpSrv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Shutdown
	return nil
}

// Addr returns the listener's address (empty before Start).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// BeginDrain flips the server into draining mode without closing
// anything: every new /v1 request is answered 503 and /healthz
// reports draining, while in-flight requests keep running. Load
// balancers use the health flip to stop routing here before Shutdown
// closes the listener.
func (s *Server) BeginDrain() { s.edge.BeginDrain() }

// Shutdown drains the server gracefully: it begins draining (new
// requests get 503), stops the monitor — which closes every stream
// subscriber's channel, so long-lived SSE handlers return and their
// connections can drain — flushes the flip journal, then waits, up to
// ctx, for in-flight requests to complete before closing the listener
// and connections.
func (s *Server) Shutdown(ctx context.Context) error {
	s.edge.BeginDrain()
	var jerr error
	if s.mon != nil {
		s.mon.Close()
		jerr = s.jrnl.Close()
	}
	if s.httpSrv == nil {
		return jerr
	}
	if err := s.httpSrv.Shutdown(ctx); err != nil {
		return err
	}
	return jerr
}
