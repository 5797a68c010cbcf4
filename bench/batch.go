package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"time"
)

type batchRequest struct {
	URLs []string `json:"urls"`
}

// batchLine is the part of one NDJSON line the oracle checks.
type batchLine struct {
	URL     string          `json:"url"`
	Verdict string          `json:"verdict"`
	Error   json.RawMessage `json:"error"`
}

// postBatch posts urls to base/v1/classify/batch and checks that the
// stream answers every line, in input order, with the oracle's
// verdict. It returns the POST → first line and POST → last byte times
// and how many lines failed.
func postBatch(c *conn, base string, urls []string, o *oracle, fl *failLog) (first, total time.Duration, failed int, err error) {
	raw, err := json.Marshal(batchRequest{URLs: urls})
	if err != nil {
		return 0, 0, 0, err
	}
	req, err := http.NewRequest(http.MethodPost, base+"/v1/classify/batch", bytes.NewReader(raw))
	if err != nil {
		return 0, 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	resp, err := c.hc.Do(req.WithContext(c.ctx))
	if err != nil {
		return 0, 0, len(urls), err
	}
	firstAt, err := readFirstLine(resp.Body, &c.buf)
	resp.Body.Close()
	total = time.Since(t0)
	if err != nil || resp.StatusCode != http.StatusOK {
		return 0, total, len(urls), fmt.Errorf("batch POST: status %d, err %v", resp.StatusCode, err)
	}
	first = firstAt.Sub(t0)

	lines := bytes.Split(bytes.TrimRight(c.buf.Bytes(), "\n"), []byte("\n"))
	if len(lines) != len(urls) {
		fl.add(fmt.Errorf("batch: %d lines for %d urls", len(lines), len(urls)))
		return first, total, len(urls), nil
	}
	for i, line := range lines {
		var bl batchLine
		switch err := json.Unmarshal(line, &bl); {
		case err != nil:
			fl.add(fmt.Errorf("batch line %d: %v", i, err))
		case bl.URL != urls[i]:
			fl.add(fmt.Errorf("batch line %d out of order: got %s, want %s", i, bl.URL, urls[i]))
		case bl.Error != nil || bl.Verdict != string(o.verdict[urls[i]]):
			fl.add(fmt.Errorf("batch line %d %s: got %q (error %s), oracle %q", i, urls[i], bl.Verdict, bl.Error, o.verdict[urls[i]]))
		default:
			continue
		}
		failed++
	}
	return first, total, failed, nil
}

// batchResult is what one closed-loop phase of batch POSTs measured.
type batchResult struct {
	wall   time.Duration
	first  durs // POST sent → first line, per POST
	total  durs // POST sent → last byte, per POST
	lines  int
	failed int // lines
	gots   int64
	reused int64
}

// batchPhase posts every batch from the closed-loop clients.
func batchPhase(conns []*conn, base string, batches [][]string, o *oracle, fl *failLog, tr *tracer) batchResult {
	parts := make([]batchResult, len(conns))
	var res batchResult
	res.wall, res.gots, res.reused = eachClient(conns, len(batches), func(g int, c *conn, i int) {
		p := &parts[g]
		t0 := time.Now()
		first, total, failed, err := postBatch(c, base, batches[i], o, fl)
		tr.add("client.batch", 0, i, t0, t0.Add(total))
		p.lines += len(batches[i])
		p.failed += failed
		if err != nil {
			fl.add(err)
			return
		}
		p.first = append(p.first, first)
		p.total = append(p.total, total)
	})
	for _, p := range parts {
		res.first = append(res.first, p.first...)
		res.total = append(res.total, p.total...)
		res.lines += p.lines
		res.failed += p.failed
	}
	return res
}

// roundBatchSweep boots a server whose response cache is smaller than
// the positive working set, fills it with one pass over every link,
// then posts zipf(1.1) batches: per-request HTTP cost amortised,
// StreamOrdered fan-out, in-batch duplicates coalescing, steady-state
// evictions.
func roundBatchSweep(e *env, round int) (roundResult, error) {
	var rr roundResult
	cfg := serviceConfig(e.fx)
	cfg.CacheEntries = e.sz.cacheEntries
	st, conns, boot, err := bootServer(e, pagedOpener(e.fx.mainPath), cfg)
	if err != nil {
		return rr, err
	}
	defer st.close() //nolint:errcheck
	defer closeConns(conns)
	rr.boot = boot

	all := e.fx.oracle.urls
	if _, _, failed, err := postBatch(conns[0], st.base, all, e.fx.oracle, e.fails); err != nil || failed > 0 {
		return rr, fmt.Errorf("batch warm-up: %d failed lines, err %v", failed, err)
	}
	// The popularity ranking is fixed: which links are hot decides the
	// miss share (negative verdicts never leave their cache class,
	// positive ones compete for cacheEntries), and a seeded ranking
	// moved lines/s by 20 % from seed to seed. The seed draws the lines.
	shuffled := append([]string(nil), all...)
	saltedRNG("batch popularity").Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	z := rand.NewZipf(e.rng("batch_sweep", round), 1.1, 1, uint64(len(shuffled)-1))
	batches := make([][]string, e.sz.batchPosts)
	for i := range batches {
		batches[i] = make([]string, e.sz.batchLines)
		for j := range batches[i] {
			batches[i][j] = shuffled[z.Uint64()]
		}
	}

	before, err := readMetrics(conns[0], st.base)
	if err != nil {
		return rr, err
	}
	res := batchPhase(conns, st.base, batches, e.fx.oracle, e.fails, e.tr)
	after, err := readMetrics(conns[0], st.base)
	if err != nil {
		return rr, err
	}
	rr.wall = res.wall
	rr.attempted = res.lines
	rr.failed = res.failed
	rr.opsPerS = float64(res.lines-res.failed) / res.wall.Seconds()
	rr.opP50MS = res.first.p50us() / 1000
	rr.auxP50MS = res.total.p50us() / 1000
	reuse := ratio(res.reused, res.gots)
	if reuse < 0.99 {
		rr.invalid = fmt.Sprintf("client connection reuse %.4f < 0.99", reuse)
	}
	if ev := after.Cache.Evictions - before.Cache.Evictions; ev == 0 && rr.invalid == "" {
		rr.invalid = "batch_sweep saw no cache evictions: the working set fits the cache"
	}
	rr.layer = merge(serviceLayer(before, after), map[string]float64{
		"client.conn_reuse_ratio": reuse,
		"client.req_count":        float64(len(batches)),
		"client.fail_count":       float64(res.failed),
	}, st.layer())
	return rr, nil
}
