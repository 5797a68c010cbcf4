package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"permadead/internal/monitor"
	"permadead/internal/persist"
	"permadead/internal/service"
)

// --- booting the system under test ---

// stack is one in-process server over its own opened bundle, listening
// on loopback.
type stack struct {
	bundle  *persist.Bundle
	srv     *service.Server
	base    string
	openMS  float64 // persist.OpenPaged
	newMS   float64 // service.New
	startMS float64 // Start → first /healthz 200
}

// layer reports the cold start's parts.
func (s *stack) layer() map[string]float64 {
	return map[string]float64{"service.new_ms": s.newMS, "service.start_ms": s.startMS}
}

// serviceConfig is the production default over the fixture's sample.
func serviceConfig(fx *fixture) service.Config {
	cfg := service.DefaultConfig()
	cfg.Study = fx.studyConfig(cfg.Study.Concurrency)
	return cfg
}

// opener yields a fresh bundle for one server.
type opener func() (*persist.Bundle, error)

func pagedOpener(path string) opener {
	return func() (*persist.Bundle, error) { return persist.OpenPaged(path) }
}

// newStack opens a bundle and builds a server over it without
// listening.
func newStack(open opener, cfg service.Config) (*stack, error) {
	t0 := time.Now()
	b, err := open()
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	srv, err := service.New(b, cfg)
	if err != nil {
		b.Close()
		return nil, err
	}
	return &stack{bundle: b, srv: srv, openMS: ms(t1.Sub(t0)), newMS: ms(time.Since(t1))}, nil
}

func (s *stack) start() error {
	if err := s.srv.Start("127.0.0.1:0"); err != nil {
		return err
	}
	s.base = "http://" + s.srv.Addr()
	return nil
}

func (s *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if cerr := s.bundle.Close(); err == nil {
		err = cerr
	}
	return err
}

// awaitHealthy polls /healthz until it answers 200.
func awaitHealthy(c *conn, base string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		status, _, err := c.get(base + "/healthz")
		if err == nil && status == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s/healthz not 200 within 10s (status %d, err %v)", base, status, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// newConns opens the closed-loop clients and has each make its
// connection with one /healthz, so the timed phase starts on kept-alive
// connections.
func newConns(n int, base string) ([]*conn, error) {
	conns := make([]*conn, n)
	for i := range conns {
		conns[i] = newConn()
		if err := awaitHealthy(conns[i], base); err != nil {
			return nil, err
		}
	}
	return conns, nil
}

func closeConns(conns []*conn) {
	for _, c := range conns {
		c.close()
	}
}

// bootServer is the cold start every serving round begins with: open
// the paged file, build the server, listen, first /healthz 200.
func bootServer(e *env, open opener, cfg service.Config) (*stack, []*conn, time.Duration, error) {
	t0 := time.Now()
	st, err := newStack(open, cfg)
	if err != nil {
		return nil, nil, 0, err
	}
	if err := st.start(); err != nil {
		st.close() //nolint:errcheck // reporting the start error
		return nil, nil, 0, err
	}
	first := newConn()
	if err := awaitHealthy(first, st.base); err != nil {
		st.close() //nolint:errcheck
		return nil, nil, 0, err
	}
	boot := time.Since(t0)
	st.startMS = ms(boot) - st.openMS - st.newMS
	rest, err := newConns(e.clients-1, st.base)
	if err != nil {
		st.close() //nolint:errcheck
		return nil, nil, 0, err
	}
	return st, append([]*conn{first}, rest...), boot, nil
}

// --- /metrics ---

// serverMetrics is the slice of /metrics the harness reads.
type serverMetrics struct {
	Cache        service.CacheStats  `json:"cache"`
	NegCache     service.CacheStats  `json:"negcache"`
	Singleflight service.FlightStats `json:"singleflight"`
	Admission    struct {
		Rejected         int64 `json:"rejected"`
		ClassifyRejected int64 `json:"classify_rejected"`
	} `json:"admission"`
	Memo struct {
		Hits, Misses, Evictions int64
	} `json:"memo"`
	Prefilter struct {
		Checks     int64 `json:"checks"`
		DefiniteNo int64 `json:"definite_no"`
	} `json:"prefilter"`
	Monitor monitor.Stats `json:"monitor"`
}

func readMetrics(c *conn, base string) (serverMetrics, error) {
	var m serverMetrics
	err := c.getJSON(base+"/metrics", &m)
	return m, err
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// cacheHitRatio is the share of the timed phase's requests answered
// from either response cache.
func cacheHitRatio(before, after serverMetrics, requests int) float64 {
	hits := after.Cache.Hits - before.Cache.Hits + after.NegCache.Hits - before.NegCache.Hits
	return ratio(hits, int64(requests))
}

// serviceLayer turns a /metrics delta into the service.* and archive.*
// counters of the per-layer table.
func serviceLayer(before, after serverMetrics) map[string]float64 {
	ch, cm := after.Cache.Hits-before.Cache.Hits, after.Cache.Misses-before.Cache.Misses
	nh, nm := after.NegCache.Hits-before.NegCache.Hits, after.NegCache.Misses-before.NegCache.Misses
	mh, mm := after.Memo.Hits-before.Memo.Hits, after.Memo.Misses-before.Memo.Misses
	return map[string]float64{
		"service.cache.hit_ratio":             ratio(ch, ch+cm),
		"service.cache.evictions":             float64(after.Cache.Evictions - before.Cache.Evictions),
		"service.negcache.hit_ratio":          ratio(nh, nh+nm),
		"service.flight.leaders":              float64(after.Singleflight.Leaders - before.Singleflight.Leaders),
		"service.flight.coalesced":            float64(after.Singleflight.Coalesced - before.Singleflight.Coalesced),
		"service.admission.rejected":          float64(after.Admission.Rejected - before.Admission.Rejected + after.Admission.ClassifyRejected - before.Admission.ClassifyRejected),
		"archive.memo.hit_ratio":              ratio(mh, mh+mm),
		"archive.memo.evictions":              float64(after.Memo.Evictions - before.Memo.Evictions),
		"archive.prefilter.definite_no_ratio": ratio(after.Prefilter.DefiniteNo-before.Prefilter.DefiniteNo, after.Prefilter.Checks-before.Prefilter.Checks),
	}
}

// clientLayer turns a closed-loop phase into the client.* metrics.
func clientLayer(res loopResult) map[string]float64 {
	out := map[string]float64{
		"client.conn_reuse_ratio": res.reuseRatio(),
		"client.req_count":        float64(res.attempted),
		"client.fail_count":       float64(res.failed),
	}
	for ep, name := range endpointNames {
		out["client."+name+".rtt_p50_us"] = res.lat[ep].p50us()
		out["client."+name+".p99_us"] = res.lat[ep].p99us()
	}
	return out
}

func merge(dst map[string]float64, srcs ...map[string]float64) map[string]float64 {
	for _, src := range srcs {
		for k, v := range src {
			dst[k] = v
		}
	}
	return dst
}

// --- op schedules ---

// hotPool draws the warmed pool: seeded, and only links whose live
// outcome the server will cache (a 5xx, 429 or timeout answer is
// served but never memoized, so such a link can never be a hit).
func hotPool(e *env, n int) []string {
	var eligible []string
	for _, u := range e.fx.oracle.urls {
		if e.fx.oracle.cacheable[u] {
			eligible = append(eligible, u)
		}
	}
	r := e.rng("pool", 0)
	r.Shuffle(len(eligible), func(i, j int) { eligible[i], eligible[j] = eligible[j], eligible[i] })
	if n > len(eligible) {
		n = len(eligible)
	}
	return eligible[:n]
}

// everyEndpointOnce lists each url × {avail, status, classify} once.
func everyEndpointOnce(urls []string) []op {
	ops := make([]op, 0, len(urls)*int(numEndpoints))
	for _, u := range urls {
		for ep := endpoint(0); ep < numEndpoints; ep++ {
			ops = append(ops, op{ep, u})
		}
	}
	return ops
}

// zipfOps draws n ops over pool with zipf(s) link popularity; eps
// chooses the endpoints cycled through.
func zipfOps(r *rand.Rand, pool []string, n int, s float64, eps ...endpoint) []op {
	z := rand.NewZipf(r, s, 1, uint64(len(pool)-1))
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{eps[i%len(eps)], pool[z.Uint64()]}
	}
	return ops
}

// finishLoop folds a closed-loop phase into the round: failures, the
// reuse rule, and the three end-to-end values every GET workload
// shares (ok responses per second, classify p50, availability p50).
func finishLoop(rr *roundResult, res loopResult) {
	rr.wall = res.wall
	rr.attempted += res.attempted
	rr.failed += res.failed
	rr.opsPerS = float64(res.okCount()) / res.wall.Seconds()
	rr.opP50MS = res.lat[epClassify].p50us() / 1000
	rr.auxP50MS = res.lat[epAvail].p50us() / 1000
	if r := res.reuseRatio(); r < 0.99 {
		rr.invalid = fmt.Sprintf("client connection reuse %.4f < 0.99", r)
	}
}

// --- serve_cold and serve_hot ---

// getRound is the round the two GET workloads share: boot a server,
// warm the pool if there is one, time ops between two /metrics reads,
// and hold the timed phase's cache hit ratio to the workload's
// precondition (precondition returns the violation, or "").
func getRound(e *env, warmPool []string, ops []op, precondition func(hitRatio float64) string) (roundResult, error) {
	var rr roundResult
	st, conns, boot, err := bootServer(e, pagedOpener(e.fx.mainPath), serviceConfig(e.fx))
	if err != nil {
		return rr, err
	}
	defer st.close() //nolint:errcheck // the round's answers are already checked
	defer closeConns(conns)
	rr.boot = boot
	if warmPool != nil {
		if err := warm(e, conns, st.base, warmPool); err != nil {
			return rr, err
		}
	}

	before, err := readMetrics(conns[0], st.base)
	if err != nil {
		return rr, err
	}
	res := closedLoop(conns, st.base, ops, e.fx.oracle, e.fails, e.tr)
	after, err := readMetrics(conns[0], st.base)
	if err != nil {
		return rr, err
	}
	finishLoop(&rr, res)
	if rr.invalid == "" {
		rr.invalid = precondition(cacheHitRatio(before, after, len(ops)))
	}
	rr.layer = merge(clientLayer(res), serviceLayer(before, after), st.layer())
	return rr, nil
}

// roundServeCold asks every link × endpoint exactly once, shuffled:
// every request is a first touch.
func roundServeCold(e *env, round int) (roundResult, error) {
	ops := everyEndpointOnce(e.fx.oracle.urls)
	e.rng("serve_cold", round).Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return getRound(e, nil, ops, func(hr float64) string {
		if hr > 0.01 {
			return fmt.Sprintf("serve_cold cache hit ratio %.4f > 0.01: requests are not first-touch", hr)
		}
		return ""
	})
}

// warm asks every pool link × endpoint once, untimed.
func warm(e *env, conns []*conn, base string, pool []string) error {
	res := closedLoop(conns, base, everyEndpointOnce(pool), e.fx.oracle, e.fails, nil)
	if res.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d requests failed", res.failed, res.attempted)
	}
	return nil
}

// roundServeHot warms a pool that fits the response cache, then draws
// zipf(1.2) GETs over it: the compute path is bypassed and what is
// left is client, TCP, wrapper, gate, cache probe and write.
func roundServeHot(e *env, round int) (roundResult, error) {
	pool := hotPool(e, e.sz.hotPool)
	ops := zipfOps(e.rng("serve_hot", round), pool, e.sz.hotGets, 1.2, epAvail, epStatus, epClassify)
	return getRound(e, pool, ops, func(hr float64) string {
		if hr < 0.99 {
			return fmt.Sprintf("serve_hot cache hit ratio %.4f < 0.99: the pool does not stay cached", hr)
		}
		return ""
	})
}
