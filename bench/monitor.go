package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"permadead/internal/monitor"
	"permadead/internal/persist"
)

// sseEvent is the part of a verdict event the harness checks.
type sseEvent struct {
	Seq           int64 `json:"seq"`
	EmittedUnixNs int64 `json:"emitted_unix_ns"`
}

// subscriber reads /v1/stream/verdicts on its own connection.
type subscriber struct {
	mu       sync.Mutex
	seqs     []int64
	delivery durs
	dropped  bool
	err      error
	cancel   context.CancelFunc
	done     chan struct{}
	hc       *http.Client
}

// subscribe opens the stream and returns once the server has accepted
// the subscription (response headers in), so no flip can be missed.
func subscribe(base string) (*subscriber, error) {
	ctx, cancel := context.WithCancel(context.Background())
	s := &subscriber{cancel: cancel, done: make(chan struct{}), hc: &http.Client{Transport: &http.Transport{}}}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/stream/verdicts", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("stream: status %d", resp.StatusCode)
	}
	go func() {
		defer close(s.done)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		event := ""
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				event = line[len("event: "):]
			case strings.HasPrefix(line, "data: "):
				now := time.Now()
				s.mu.Lock()
				if event == "dropped" {
					s.dropped = true
				} else {
					var ev sseEvent
					if err := json.Unmarshal([]byte(line[len("data: "):]), &ev); err != nil {
						s.err = err
					} else {
						s.seqs = append(s.seqs, ev.Seq)
						if ev.EmittedUnixNs > 0 {
							s.delivery = append(s.delivery, now.Sub(time.Unix(0, ev.EmittedUnixNs)))
						}
					}
				}
				s.mu.Unlock()
			}
		}
	}()
	return s, nil
}

func (s *subscriber) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.seqs)
}

// awaitCount waits until n events arrived.
func (s *subscriber) awaitCount(n int) error {
	deadline := time.Now().Add(10 * time.Second)
	for s.count() < n {
		if time.Now().After(deadline) {
			return fmt.Errorf("stream: %d of %d events after 10s", s.count(), n)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

func (s *subscriber) stop() {
	s.cancel()
	<-s.done
	s.hc.CloseIdleConnections()
}

// failures counts what the stream contract forbids: a dropped
// subscriber, an undecodable event, a missing, duplicated or
// out-of-order seq.
func (s *subscriber) failures(want int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	if s.dropped {
		n++
	}
	if s.err != nil {
		n++
	}
	for i := 0; i < want; i++ {
		if i >= len(s.seqs) || s.seqs[i] != int64(i+1) {
			n++
		}
	}
	if len(s.seqs) > want {
		n += len(s.seqs) - want
	}
	return n
}

// watchSet picks articles in r's order until they cite at least want
// sampled links; links of unwatched articles supply the URLs edits add.
func watchSet(r *rand.Rand, urls, articles []string, want int) (titles, spare []string) {
	cites := make(map[string]int)
	for _, a := range articles {
		cites[a]++
	}
	order := r.Perm(len(urls))
	watched := make(map[string]bool)
	covered := 0
	for _, i := range order {
		if covered >= want {
			break
		}
		if a := articles[i]; !watched[a] {
			watched[a] = true
			titles = append(titles, a)
			covered += cites[a]
		}
	}
	for _, i := range order {
		if !watched[articles[i]] {
			spare = append(spare, urls[i])
		}
	}
	return titles, spare
}

// roundMonitorStream is the write path: a fresh server over the
// in-memory flaky universe with an on-disk journal, two SSE subscribers, a watched
// article set, then the sim clock advanced in ticks with wiki edits in
// between.
func roundMonitorStream(e *env, round int) (roundResult, error) {
	var rr roundResult
	cfg := serviceConfig(e.fx)
	cfg.Study.SampleSize = 0 // serve every marked link of the flaky universe
	cfg.MonitorTTLDays = 7
	cfg.JournalPath = filepath.Join(e.workDir, fmt.Sprintf("journal-%d.ndjson", round))
	// Each round serves its own copy of the wiki, so edits and the
	// monitor's feed never leak into the next round.
	st, conns, boot, err := bootServer(e, func() (*persist.Bundle, error) {
		b := persist.FromUniverse(e.fx.flaky)
		b.Wiki = e.fx.flaky.Wiki.Clone()
		return b, nil
	}, cfg)
	if err != nil {
		return rr, err
	}
	defer st.close() //nolint:errcheck
	defer closeConns(conns)
	rr.boot = boot
	c := conns[0]

	var sample struct {
		URLs     []string `json:"urls"`
		Articles []string `json:"articles"`
	}
	if err := c.getJSON(st.base+"/v1/sample?articles=1&n=1000000", &sample); err != nil {
		return rr, err
	}
	// The watched set is fixed, so every seed re-checks the same links;
	// the seed picks the links edits add. The schedule is the same every
	// round: rounds of one run must journal the same flips.
	titles, spare := watchSet(saltedRNG("watch set"), sample.URLs, sample.Articles, e.sz.watchLinks)
	if len(spare) == 0 {
		return rr, errors.New("monitor_stream: no unwatched links left to add by edit")
	}
	r := e.rng("monitor_stream", 0)
	r.Shuffle(len(spare), func(i, j int) { spare[i], spare[j] = spare[j], spare[i] })

	subs := make([]*subscriber, 2)
	for i := range subs {
		if subs[i], err = subscribe(st.base); err != nil {
			return rr, err
		}
		defer subs[i].stop()
	}

	t0 := time.Now()
	var wr struct {
		WatchedLinks int `json:"watched_links"`
	}
	if err := c.postJSON(st.base+"/v1/watch", map[string]any{"articles": titles}, &wr); err != nil {
		return rr, err
	}
	watchMS := ms(time.Since(t0))
	if wr.WatchedLinks < e.sz.watchLinks {
		return rr, fmt.Errorf("monitor_stream: watching %d links, want at least %d", wr.WatchedLinks, e.sz.watchLinks)
	}

	// Edits alternate between adding a cite to an article and taking
	// it out again, so each article's base text is needed once.
	edited := titles[:min(len(titles), e.sz.editsPerTick)]
	baseText := make([]string, len(edited))
	for i, title := range edited {
		var ar struct {
			Text string `json:"text"`
		}
		if err := c.getJSON(st.base+"/v1/sim/article?title="+url.QueryEscape(title), &ar); err != nil {
			return rr, err
		}
		baseText[i] = ar.Text
	}

	var ticks, edits durs
	var flips int
	var stats monitor.Stats
	edit := 0
	start := time.Now()
	for t := 0; t < e.sz.ticks; t++ {
		for k := 0; k < e.sz.editsPerTick; k++ {
			title := edited[(edit/2)%len(edited)]
			text := baseText[(edit/2)%len(edited)]
			if edit%2 == 0 {
				text += "\nA later account agrees.<ref>[" + spare[(edit/2)%len(spare)] + " src]</ref>"
			}
			edit++
			rr.attempted++
			t0 := time.Now()
			err := c.postJSON(st.base+"/v1/sim/edit", map[string]string{"title": title, "comment": "bench", "text": text}, nil)
			t1 := time.Now()
			e.tr.add("client.edit", 0, edit, t0, t1)
			if err != nil {
				rr.failed++
				e.fails.add(err)
				continue
			}
			edits = append(edits, t1.Sub(t0))
		}
		var tr struct {
			Stats monitor.Stats `json:"stats"`
		}
		rr.attempted++
		t0 := time.Now()
		err := c.postJSON(st.base+"/v1/sim/tick", map[string]int{"days": e.sz.tickDays}, &tr)
		t1 := time.Now()
		e.tr.add("client.tick", 0, t, t0, t1)
		if err != nil {
			rr.failed++
			e.fails.add(err)
			continue
		}
		ticks = append(ticks, t1.Sub(t0))
		stats = tr.Stats
		flips = stats.JournalEntries
	}
	// Ticks run re-checks synchronously, so the journal is complete;
	// the tick phase ends when both subscribers hold every flip.
	for _, s := range subs {
		if err := s.awaitCount(flips); err != nil {
			e.fails.add(err)
		}
	}
	rr.wall = time.Since(start)

	var delivery durs
	events := 0
	for _, s := range subs {
		rr.attempted += flips
		rr.failed += s.failures(flips)
		s.mu.Lock()
		events += len(s.seqs)
		delivery = append(delivery, s.delivery...)
		s.mu.Unlock()
	}
	if flips == 0 {
		return rr, errors.New("monitor_stream: no verdict flips (is the universe flaky?)")
	}
	rr.opsPerS = float64(events) / rr.wall.Seconds()
	rr.opP50MS = delivery.p50us() / 1000
	rr.auxP50MS = ticks.p50us() / 1000

	_, watched, err := c.get(st.base + "/v1/watched")
	if err != nil {
		return rr, err
	}
	sum := sha256.Sum256(watched)
	rr.digest = strconv.Itoa(flips) + "/" + hex.EncodeToString(sum[:8])

	checks := stats.ChecksExecuted
	rr.layer = map[string]float64{
		"client.sse.delivery_p99_ms":  delivery.p99us() / 1000,
		"client.req_count":            float64(len(ticks) + len(edits)),
		"client.fail_count":           float64(rr.failed),
		"monitor.watch_ms":            watchMS,
		"monitor.tick_p50_ms":         ticks.p50us() / 1000,
		"monitor.edit_p50_ms":         edits.p50us() / 1000,
		"monitor.checks_per_s":        float64(checks) / rr.wall.Seconds(),
		"monitor.flips":               float64(flips),
		"monitor.subscribers_dropped": float64(stats.SubsDropped),
		"monitor.feed_dropped":        float64(stats.FeedDropped),
		"journal.bytes_per_flip":      float64(stats.JournalBytes) / float64(flips),
	}
	merge(rr.layer, st.layer())
	return rr, nil
}
