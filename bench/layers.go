package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"permadead/internal/archive"
	"permadead/internal/core"
	"permadead/internal/federation"
	"permadead/internal/fetch"
	"permadead/internal/journal"
	"permadead/internal/monitor"
	"permadead/internal/persist"
	"permadead/internal/service"
	"permadead/internal/shard"
	"permadead/internal/simweb"
	"permadead/internal/softerror"
	"permadead/internal/urlutil"
	"permadead/internal/worldgen"
)

// This file is the traced run's function and handler depths: direct
// calls into each layer's public functions, timed from outside, one
// span per timed call or loop. Nothing here feeds an end-to-end
// metric.

// timeLoop runs fn n times, records one span for the loop, and returns
// the mean time per call.
func timeLoop(tr *tracer, name string, n int, fn func(i int)) time.Duration {
	if n == 0 {
		return 0
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	t1 := time.Now()
	tr.add(name, 0, n, t0, t1)
	return t1.Sub(t0) / time.Duration(n)
}

// calibNS times a fixed splitmix64 loop: the same arithmetic before
// and after a workload, so machine drift shows up as a number.
func calibNS() float64 {
	const n = 20_000_000
	var x, acc uint64 = 0x9e3779b97f4a7c15, 0
	t0 := time.Now()
	for i := 0; i < n; i++ {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		acc += z ^ (z >> 31)
	}
	d := time.Since(t0)
	calibSink.Store(acc)
	return float64(d.Nanoseconds()) / n
}

var calibSink atomic.Uint64

// countingTransport wraps the simulated web's transport to count round
// trips and the time spent inside them.
type countingTransport struct {
	next http.RoundTripper
	n    atomic.Int64
	ns   atomic.Int64
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t0 := time.Now()
	resp, err := c.next.RoundTrip(req)
	c.ns.Add(time.Since(t0).Nanoseconds())
	c.n.Add(1)
	return resp, err
}

// funcDepth measures the layers' public functions over the main
// universe.
func funcDepth(e *env) (map[string]float64, error) {
	out := map[string]float64{
		"worldgen.generate_s":       e.fx.generateS,
		"worldgen.generate_flaky_s": e.fx.generateFlakyS,
		"persist.save_paged_s":      e.fx.savePagedS,
		"persist.file_mb":           e.fx.fileMB,
	}
	ctx := context.Background()
	tr := e.tr
	cfg := e.fx.studyConfig(32)

	// persist: open and verify.
	out["persist.open_paged_ms"] = ms(timeLoop(tr, "persist.open_paged", 20, func(int) {
		if b, err := persist.OpenPaged(e.fx.mainPath); err == nil {
			b.Close()
		}
	}))
	var verr error
	out["persist.verify_paged_ms"] = ms(timeLoop(tr, "persist.verify_paged", 3, func(int) {
		if err := persist.VerifyPaged(e.fx.mainPath); err != nil {
			verr = err
		}
	}))
	if verr != nil {
		return nil, fmt.Errorf("verify %s: %w", e.fx.mainPath, verr)
	}

	open := func() (*persist.Bundle, *core.Study, error) {
		b, err := persist.OpenPaged(e.fx.mainPath)
		if err != nil {
			return nil, nil, err
		}
		return b, newStudy(b, cfg), nil
	}

	// core: the six stages one by one on a cold study, then a whole Run
	// on another, three times each; what the median Run spends outside
	// the median stages is run_other.
	stageNames := []string{"collect", "dataset_stats", "live_check", "archive_analysis", "temporal", "spatial"}
	stageMS := make(map[string][]float64)
	var runMS []float64
	var recs []core.LinkRecord
	for rep := 0; rep < 3; rep++ {
		b, s, err := open()
		if err != nil {
			return nil, err
		}
		r := &core.Report{Config: s.Config}
		var lerr error
		stages := []func(){
			func() { r.Records = s.Collect() },
			func() { s.DatasetStats(r) },
			func() { lerr = s.LiveCheck(ctx, r) },
			func() { s.ArchiveAnalysis(r) },
			func() { s.TemporalAnalysis(r) },
			func() { s.SpatialAnalysis(r) },
		}
		for i, fn := range stages {
			d := timeLoop(tr, "core."+stageNames[i], 1, func(int) { fn() })
			stageMS[stageNames[i]] = append(stageMS[stageNames[i]], ms(d))
		}
		b.Close()
		if lerr != nil {
			return nil, lerr
		}

		b, s, err = open()
		if err != nil {
			return nil, err
		}
		d := timeLoop(tr, "core.run", 1, func(int) { _, lerr = s.Run(ctx) })
		b.Close()
		if lerr != nil {
			return nil, lerr
		}
		runMS = append(runMS, ms(d))
	}
	other := median(runMS)
	for _, name := range stageNames {
		out["core."+name+"_ms"] = median(stageMS[name])
		other -= median(stageMS[name])
	}
	out["core.run_other_ms"] = other

	b, s, err := open()
	if err != nil {
		return nil, err
	}
	defer b.Close()
	recs = s.Collect()

	// core: per-link calls on cold studies.
	b3, s3, err := open()
	if err != nil {
		return nil, err
	}
	defer b3.Close()
	out["core.checklive_us"] = us(timeLoop(tr, "core.checklive", len(recs), func(i int) {
		s3.CheckLive(ctx, recs[i].URL) //nolint:errcheck // ctx is never cancelled
	}))
	out["core.classifylink_us"] = us(timeLoop(tr, "core.classifylink", len(recs), func(i int) {
		s3.ClassifyLink(ctx, recs[i]) //nolint:errcheck
	}))
	b4, s4, err := open()
	if err != nil {
		return nil, err
	}
	defer b4.Close()
	t0 := time.Now()
	err = s4.ClassifyAll(ctx, recs, 16, func(int, core.Classification, error) error { return nil })
	t1 := time.Now()
	if err != nil {
		return nil, err
	}
	tr.add("core.classifyall", 0, len(recs), t0, t1)
	out["core.classifyall_links_per_s"] = float64(len(recs)) / t1.Sub(t0).Seconds()

	const streamN = 200_000
	t0 = time.Now()
	err = core.StreamOrdered(ctx, streamN, 16, func(i int) int { return i }, func(int, int) error { return nil })
	t1 = time.Now()
	if err != nil {
		return nil, err
	}
	tr.add("core.stream_ordered", 0, streamN, t0, t1)
	out["core.stream_ordered_ns"] = float64(t1.Sub(t0).Nanoseconds()) / streamN

	// wikimedia: history mining, the work Collect is made of.
	out["wikimedia.history_of_us"] = us(timeLoop(tr, "wikimedia.history_of", len(recs), func(i int) {
		b.Wiki.HistoryOf(recs[i].Article, recs[i].URL)
	}))
	out["wikimedia.dead_links_us"] = us(timeLoop(tr, "wikimedia.dead_links", len(recs), func(i int) {
		b.Wiki.DeadLinks(recs[i].Article)
	}))

	// urlutil and the spatial stage's domain enumeration.
	out["urlutil.edit_distance_ns"] = float64(timeLoop(tr, "urlutil.edit_distance", len(recs), func(i int) {
		urlutil.EditDistance(recs[i].URL, recs[(i+1)%len(recs)].URL)
	}).Nanoseconds())
	arch := b.Archive
	out["archive.domain_urls_us"] = us(timeLoop(tr, "archive.domain_urls", len(recs), func(i int) {
		arch.DomainURLs(recs[i].Domain, 4000)
	}))

	// archive: the index lookups under every availability and classify.
	query := func(a *archive.Archive) func(i int) {
		return func(i int) {
			a.Query(availabilityQuery(recs[i].URL, cfg)) //nolint:errcheck // no timeout is set
		}
	}
	out["archive.query_us"] = us(timeLoop(tr, "archive.query", len(recs), query(arch)))
	if u := e.fx.universe; u != nil {
		out["archive.query_inmem_us"] = us(timeLoop(tr, "archive.query_inmem", len(recs), query(u.Archive)))

		// Freeze is idempotent on a generated archive, so time it on a
		// copy rebuilt from the same captures.
		fresh := archive.New()
		u.Archive.EachSnapshot(fresh.Add)
		u.Archive.EachBulkRegion(fresh.AddBulkCoverage)
		out["archive.freeze_ms"] = ms(timeLoop(tr, "archive.freeze", 1, func(int) { fresh.Freeze() }))
	}
	cdx := func(i int) archive.CDXQuery {
		return archive.CDXQuery{Host: recs[i].Host, PathPrefix: urlutil.Directory(recs[i].URL), Status: 200, Limit: 100}
	}
	out["archive.cdx_count_us"] = us(timeLoop(tr, "archive.cdx_count", len(recs), func(i int) { arch.CDXCount(cdx(i)) }))
	out["archive.cdx_list_us"] = us(timeLoop(tr, "archive.cdx_list", len(recs), func(i int) { arch.CDXList(cdx(i)) }))
	out["archive.count_in_directory_us"] = us(timeLoop(tr, "archive.count_in_directory", len(recs), func(i int) { arch.CountInDirectory(recs[i].URL) }))
	out["archive.count_on_hostname_us"] = us(timeLoop(tr, "archive.count_on_hostname", len(recs), func(i int) { arch.CountOnHostname(recs[i].URL) }))
	out["archive.might_have_captures_ns"] = float64(timeLoop(tr, "archive.might_have_captures", len(recs), func(i int) { arch.MightHaveCaptures(recs[i].URL) }).Nanoseconds())

	// fetch, simweb, softerror: the live half.
	ct := &countingTransport{next: simweb.NewTransport(b.World, cfg.StudyTime)}
	client := fetch.New(ct)
	results := make([]fetch.Result, len(recs))
	out["fetch.fetch_us"] = us(timeLoop(tr, "fetch.fetch", len(recs), func(i int) { results[i] = client.Fetch(ctx, recs[i].URL) }))
	out["fetch.fetches"] = float64(ct.n.Load())
	out["simweb.roundtrip_us"] = float64(ct.ns.Load()) / 1000 / float64(max(ct.n.Load(), 1))
	var ok200 []fetch.Result
	for _, res := range results {
		if res.Category == fetch.Cat200 {
			ok200 = append(ok200, res)
		}
	}
	det := softerror.NewDetector(client)
	out["softerror.check_us"] = us(timeLoop(tr, "softerror.check", len(ok200), func(i int) { det.Check(ctx, ok200[i].URL, ok200[i]) }))

	// monitor and journal.
	lc := &monitor.LiveChecker{World: b.World}
	out["monitor.check_us"] = us(timeLoop(tr, "monitor.check", len(recs), func(i int) { lc.Check(ctx, recs[i].URL, cfg.StudyTime) }))
	jpath := filepath.Join(e.workDir, "layer-journal.ndjson")
	os.Remove(jpath) //nolint:errcheck // absent on the first run
	j, err := journal.OpenFile(jpath)
	if err != nil {
		return nil, err
	}
	const appends = 2000
	out["journal.append_us"] = us(timeLoop(tr, "journal.append", appends, func(i int) {
		j.Append(journal.Entry{Day: int(cfg.StudyTime), URL: recs[i%len(recs)].URL, Old: "alive", New: "dead", Category: "404", Articles: []string{recs[i%len(recs)].Article}})
	}))
	if err := j.Close(); err != nil {
		return nil, err
	}
	out["journal.replay_ms"] = ms(timeLoop(tr, "journal.replay", 1, func(int) {
		if j2, err := journal.OpenFile(jpath); err == nil {
			j2.Close()
		}
	}))

	// shard ring.
	ring, err := shard.New([]string{"s1", "s2"}, 0)
	if err != nil {
		return nil, err
	}
	out["shard.ring.owner_ns"] = float64(timeLoop(tr, "shard.ring.owner", len(recs)*20, func(i int) { ring.Owner(recs[i%len(recs)].Domain) }).Nanoseconds())

	// federation: function depth only.
	fed1, err := federation.New(arch, worldgen.FederationManifest(e.fx.params, 1))
	if err != nil {
		return nil, err
	}
	fed3, err := federation.New(arch, worldgen.FederationManifest(e.fx.params, 3))
	if err != nil {
		return nil, err
	}
	fedQuery := func(f *federation.Federation) func(i int) {
		return func(i int) {
			f.Query(ctx, availabilityQuery(recs[i].URL, cfg)) //nolint:errcheck // a miss is an answer here
		}
	}
	out["federation.query_identity_us"] = us(timeLoop(tr, "federation.query_identity", len(recs), fedQuery(fed1)))
	out["federation.query_3member_us"] = us(timeLoop(tr, "federation.query_3member", len(recs), fedQuery(fed3)))
	out["federation.merged_snapshots_us"] = us(timeLoop(tr, "federation.merged_snapshots", len(recs), func(i int) { fed3.MergedSnapshots(recs[i].URL) }))
	fs := fed3.Stats()
	out["federation.hedge_fired_ratio"] = ratio(fs.HedgesFired, fs.Queries)
	return out, nil
}

// typicalUS is the mean of v, in microseconds, over the requests whose
// loopback rtt lies between its 40th and 60th percentile: what the
// median request spends in a layer. Medians of the three self times
// taken separately would not add up on a first-touch workload, where
// one request costs 2 us of archive lookup and the next 2 ms of typo
// scan; taken over the same requests they do, up to the width of the
// band.
func typicalUS(rtt, v durs) float64 {
	s := rtt.sortedUS()
	lo, hi := quantile(s, 0.4), quantile(s, 0.6)
	var sum float64
	n := 0
	for i, d := range rtt {
		if x := us(d); x >= lo && x <= hi {
			sum += us(v[i])
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// serveHandler calls h directly, without a socket.
func serveHandler(h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// threeDepths replays the same GETs at three depths — loopback,
// Handler().ServeHTTP, direct function call — each on its own stack
// over the same bundle so no depth warms another's caches, one client,
// one span per call. Per request, client self time is rtt − handler,
// service self time is handler − function. Each is reported for the
// median request (typicalUS), and the three must sum to within 10 % of
// the loopback median; a larger gap stops the run.
//
// hot selects the regime: a warmed pool under zipf draws (the function
// depth is then the response cache probe), or every link first-touch
// (the function depth is archive.Query, CheckLive, ClassifyLink).
func threeDepths(e *env, hot bool) (map[string]float64, error) {
	cfg := serviceConfig(e.fx)
	loop, conns, _, err := bootServer(e, pagedOpener(e.fx.mainPath), cfg)
	if err != nil {
		return nil, err
	}
	defer loop.close() //nolint:errcheck
	defer closeConns(conns)
	c := conns[0]
	hand, err := newStack(pagedOpener(e.fx.mainPath), cfg)
	if err != nil {
		return nil, err
	}
	defer hand.close() //nolint:errcheck
	h := hand.srv.Handler()
	fb, err := persist.OpenPaged(e.fx.mainPath)
	if err != nil {
		return nil, err
	}
	defer fb.Close()
	study := newStudy(fb, cfg.Study)
	recOf := make(map[string]core.LinkRecord)
	for _, rec := range study.Collect() {
		recOf[rec.URL] = rec
	}
	cache := service.NewCache(cfg.CacheEntries, cfg.CacheShards)

	var ops []op
	if hot {
		pool := hotPool(e, e.sz.hotPool)
		for _, p := range everyEndpointOnce(pool) {
			if _, _, err := c.get(loop.base + p.path()); err != nil {
				return nil, err
			}
			cache.Put(p.path(), serveHandler(h, http.MethodGet, p.path(), nil).Body.Bytes())
		}
		ops = zipfOps(e.rng("depths", 0), pool, e.sz.replayGets, 1.2, epAvail, epStatus, epClassify)
	} else {
		ops = everyEndpointOnce(e.fx.oracle.urls)
		r := e.rng("depths", 0)
		r.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	}

	// One pass per depth, not one op at a time through all three: the
	// first depth to touch a link's index pages pays for bringing them
	// into the CPU caches, and interleaving would hand that cost to the
	// loopback depth alone.
	dRTT, dHandler := make(durs, len(ops)), make(durs, len(ops))
	top, mid := make([]int, len(ops)), make([]int, len(ops))
	for k, p := range ops {
		t0 := time.Now()
		status, body, err := c.get(loop.base + p.path())
		t1 := time.Now()
		if err == nil {
			err = e.fx.oracle.check(p, status, body)
		}
		if err != nil {
			return nil, fmt.Errorf("three-depth replay: %w", err)
		}
		top[k] = e.tr.add("client."+endpointNames[p.ep], 0, k, t0, t1)
		dRTT[k] = t1.Sub(t0)
	}
	for k, p := range ops {
		t0 := time.Now()
		rec := serveHandler(h, http.MethodGet, p.path(), nil)
		t1 := time.Now()
		if err := e.fx.oracle.check(p, rec.Code, rec.Body.Bytes()); err != nil {
			return nil, fmt.Errorf("three-depth replay, handler depth: %w", err)
		}
		mid[k] = e.tr.add("service."+endpointNames[p.ep], top[k], k, t0, t1)
		dHandler[k] = t1.Sub(t0)
	}
	ctx := context.Background()
	var rtt, handler, clientSelf, serviceSelf, funcSelf [numEndpoints]durs
	for k, p := range ops {
		t0 := time.Now()
		switch {
		case hot:
			cache.Get(p.path())
		case p.ep == epAvail:
			fb.Archive.Query(availabilityQuery(p.url, cfg.Study)) //nolint:errcheck // no timeout is set
		case p.ep == epStatus:
			study.CheckLive(ctx, p.url) //nolint:errcheck // ctx is never cancelled
		default:
			study.ClassifyLink(ctx, recOf[p.url]) //nolint:errcheck
		}
		t1 := time.Now()
		e.tr.add("func."+endpointNames[p.ep], mid[k], k, t0, t1)
		dFunc := t1.Sub(t0)

		rtt[p.ep] = append(rtt[p.ep], dRTT[k])
		handler[p.ep] = append(handler[p.ep], dHandler[k])
		clientSelf[p.ep] = append(clientSelf[p.ep], dRTT[k]-dHandler[k])
		serviceSelf[p.ep] = append(serviceSelf[p.ep], dHandler[k]-dFunc)
		funcSelf[p.ep] = append(funcSelf[p.ep], dFunc)
	}

	out := make(map[string]float64)
	for ep, name := range endpointNames {
		loopP50 := rtt[ep].p50us()
		client := typicalUS(rtt[ep], clientSelf[ep])
		svc := typicalUS(rtt[ep], serviceSelf[ep])
		fn := typicalUS(rtt[ep], funcSelf[ep])
		sum := client + svc + fn
		if gap := (sum - loopP50) / loopP50; gap > 0.10 || gap < -0.10 {
			return nil, fmt.Errorf("three-depth sum check, %s: client %.1f + service %.1f + function %.1f = %.1f us, loopback median %.1f us (%.1f%% apart, limit 10%%)",
				name, client, svc, fn, sum, loopP50, gap*100)
		}
		out["client."+name+".self_us"] = client
		out["service."+name+".handler_us"] = typicalUS(rtt[ep], handler[ep])
		out["service."+name+".self_us"] = svc
		fmt.Fprintf(os.Stderr, "budget %-8s loopback p50 %8.1f us = client %7.1f + service %7.1f + function %7.1f (n=%d)\n",
			name, loopP50, client, svc, fn, len(rtt[ep]))
	}

	// The batch endpoint at handler depth: one POST of every link into
	// a recorder, on the stack the GETs above have not fully warmed.
	raw, err := json.Marshal(batchRequest{URLs: e.fx.oracle.urls})
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	rec := serveHandler(h, http.MethodPost, "/v1/classify/batch", raw)
	t1 := time.Now()
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("handler-depth batch: status %d", rec.Code)
	}
	e.tr.add("service.batch", 0, len(e.fx.oracle.urls), t0, t1)
	out["service.batch.handler_lines_per_s"] = float64(len(e.fx.oracle.urls)) / t1.Sub(t0).Seconds()
	return out, nil
}

// fleetDepth measures the shard layer: the router at handler depth,
// the hop it adds over asking the owning shard directly, one
// scatter-gather leg, and a batch split across both shards.
func fleetDepth(e *env) (map[string]float64, error) {
	f, conns, _, err := bootFleet(e)
	if err != nil {
		return nil, err
	}
	defer f.close()
	defer closeConns(conns)
	c := conns[0]
	pool := hotPool(e, e.sz.hotPool)
	if err := warm(e, conns[:1], f.base, pool); err != nil {
		return nil, err
	}
	ops := zipfOps(e.rng("fleetdepth", 0), pool, e.sz.replayGets, 1.2, epClassify)
	ring := f.router.Ring()
	shardBase := map[string]string{"s1": f.shards[0].base, "s2": f.shards[1].base}
	h := f.router.Handler()

	var viaRouter, direct, handler durs
	for k, p := range ops {
		t0 := time.Now()
		status, body, err := c.get(f.base + p.path())
		t1 := time.Now()
		if err == nil {
			err = e.fx.oracle.check(p, status, body)
		}
		if err != nil {
			return nil, fmt.Errorf("fleet depth: %w", err)
		}
		top := e.tr.add("client.classify", 0, k, t0, t1)
		viaRouter = append(viaRouter, t1.Sub(t0))

		t0 = time.Now()
		rec := serveHandler(h, http.MethodGet, p.path(), nil)
		t1 = time.Now()
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("fleet depth: router handler answered %d", rec.Code)
		}
		mid := e.tr.add("shard.router", top, k, t0, t1)
		handler = append(handler, t1.Sub(t0))

		t0 = time.Now()
		if _, _, err := c.get(shardBase[ring.OwnerOfURL(p.url)] + p.path()); err != nil {
			return nil, err
		}
		t1 = time.Now()
		e.tr.add("service.classify", mid, k, t0, t1)
		direct = append(direct, t1.Sub(t0))
	}

	var legs durs
	for i := 0; i < 30; i++ {
		t0 := time.Now()
		if _, _, err := c.get(fmt.Sprintf("%s/v1/sample?view=owned&n=%d", f.shards[i%2].base, e.sz.scatterN)); err != nil {
			return nil, err
		}
		t1 := time.Now()
		e.tr.add("shard.scatter.leg", 0, i, t0, t1)
		legs = append(legs, t1.Sub(t0))
	}

	t0 := time.Now()
	_, _, failed, err := postBatch(c, f.base, e.fx.oracle.urls, e.fx.oracle, e.fails)
	t1 := time.Now()
	if err != nil || failed > 0 {
		return nil, fmt.Errorf("fleet depth: batch through the router: %d failed lines, err %v", failed, err)
	}
	e.tr.add("shard.batch", 0, len(e.fx.oracle.urls), t0, t1)

	return map[string]float64{
		"shard.router.handler_us":  handler.p50us(),
		"shard.hop_us":             viaRouter.p50us() - direct.p50us(),
		"shard.scatter.leg_p50_ms": legs.p50us() / 1000,
		"shard.batch.lines_per_s":  float64(len(e.fx.oracle.urls)) / t1.Sub(t0).Seconds(),
	}, nil
}
