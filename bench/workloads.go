package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"time"
)

// defaultScale is the universe BENCHMARK.json's numbers come from: a
// 1 000-link study. The issue sized the workloads for Scale(1.0) and
// 2–4 s rounds; the driver's cap (136 runs in 3 420 s, set-up repeated
// three times per run) leaves ~10 s of measuring, so the universe is
// the issue's shrunk by ten and a round is 0.3–0.8 s of work.
const defaultScale = 0.1

// flakyShare sizes the flaky universe relative to the main one.
const flakyShare = 0.25

// sizes are the per-round op counts. They are constants at a given
// scale; BENCHMARK.json records them at defaultScale in each "why".
type sizes struct {
	hotPool      int // links in the warmed pool (serve_hot, fleet_2shard)
	hotGets      int // zipf(1.2) GETs per serve_hot round
	fleetGets    int // zipf(1.2) /v1/classify GETs per fleet_2shard round
	scatters     int // sequential /v1/sample scatter-gathers per fleet round
	scatterN     int // n= of each scatter
	batchPosts   int // POSTs per batch_sweep round
	batchLines   int // zipf(1.1) lines per POST
	cacheEntries int // batch_sweep response cache: smaller than the positive working set
	watchLinks   int // links the watched article set must cover
	ticks        int // /v1/sim/tick steps per monitor_stream round
	tickDays     int // sim days per tick
	editsPerTick int // /v1/sim/edit posts between ticks
	replayGets   int // GETs the traced run replays at each depth in the cached regime
}

func sizesFor(scale float64) sizes {
	n := func(atDefault int) int {
		v := int(float64(atDefault)*scale/defaultScale + 0.5)
		if v < 2 {
			v = 2
		}
		return v
	}
	return sizes{
		hotPool:      n(256),
		hotGets:      n(20000),
		fleetGets:    n(10000),
		scatters:     n(60),
		scatterN:     n(200),
		batchPosts:   n(80),
		batchLines:   n(400),
		cacheEntries: n(410), // 4096 × scale: ≈800 positive verdicts do not fit
		watchLinks:   n(100),
		ticks:        32,
		tickDays:     15,
		editsPerTick: 10,
		replayGets:   n(3000),
	}
}

// env is what a round needs: the fixture, the sizes, and where
// failures and (in the traced run) spans go.
type env struct {
	fx      *fixture
	sz      sizes
	seed    int64
	clients int
	workDir string
	tr      *tracer
	fails   *failLog
}

// roundResult is one round's end-to-end values plus the counters the
// traced run reports per layer.
type roundResult struct {
	boot      time.Duration // bundle on disk → system answers its first request
	wall      time.Duration // timed phase
	opsPerS   float64
	opP50MS   float64
	auxP50MS  float64
	rssMB     float64 // settled after the round; filled in by runRounds
	attempted int
	failed    int
	invalid   string // named validity violation; "" when the round is valid
	layer     map[string]float64
	digest    string // what must repeat across rounds of one run
}

// workload is one benchmark workload: round runs a fixed amount of
// work against a freshly booted system and is repeated until the
// measuring time is used up.
type workload struct {
	name  string
	round func(e *env, round int) (roundResult, error)
	// flaky marks the workload that serves the flaky universe; the
	// others drop it after set-up so it does not sit in their RSS.
	flaky bool
	// firstTouch marks the workload whose requests all miss the caches;
	// its traced run replays the three depths in that regime.
	firstTouch bool
}

var workloads = []workload{
	{name: "study_full", round: roundStudyFull},
	{name: "serve_cold", round: roundServeCold, firstTouch: true},
	{name: "serve_hot", round: roundServeHot},
	{name: "batch_sweep", round: roundBatchSweep},
	{name: "monitor_stream", round: roundMonitorStream, flaky: true},
	{name: "fleet_2shard", round: roundFleet},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// rng derives one op-schedule stream from the run seed.
func (e *env) rng(salt string, round int) *rand.Rand {
	return saltedRNG(fmt.Sprintf("%d/%s/%d", e.seed, salt, round))
}

// saltedRNG is a stream that depends on salt alone. Choices that set
// how much work a round is — which links are popular in a batch, which
// articles are watched — use it without the run seed, so every seed
// measures the same amount of work and only the draws differ.
func saltedRNG(salt string) *rand.Rand {
	h := sha256.Sum256([]byte(salt))
	var s int64
	for _, b := range h[:8] {
		s = s<<8 | int64(b)
	}
	return rand.New(rand.NewSource(s))
}
