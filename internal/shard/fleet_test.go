package shard_test

// Differential test for the sharded fleet: a router in front of N
// shard servers must answer /v1/classify byte-identically to one
// standalone permadeadd over the same universe — including after a
// rebalance, and (for the links it still covers) with one shard
// killed. The simulated web's fault windows are pure hash functions of
// (seed, day, attempt), so identical universes produce identical
// verdict bytes; any divergence is a routing or merge bug.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"permadead/internal/persist"
	"permadead/internal/service"
	"permadead/internal/shard"
	"permadead/internal/urlutil"
	"permadead/internal/worldgen"
)

var (
	fleetOnce   sync.Once
	fleetBundle *persist.Bundle
)

func fleetFixture(t *testing.T) *persist.Bundle {
	t.Helper()
	fleetOnce.Do(func() {
		fleetBundle = persist.FromUniverse(worldgen.Generate(worldgen.SmallParams()))
	})
	return fleetBundle
}

func newServer(t *testing.T, b *persist.Bundle, mut func(*service.Config)) *service.Server {
	t.Helper()
	cfg := service.DefaultConfig()
	cfg.Study.SampleSize = b.Params.SampleSize
	cfg.Study.CrawlArticles = 0
	cfg.DisableMonitor = true
	if mut != nil {
		mut(&cfg)
	}
	s, err := service.New(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Shutdown(shutdownCtx(t)) }) //nolint:errcheck
	return s
}

func shutdownCtx(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// fleet spins up n shard servers over one bundle plus a router, and
// returns the router, its handler, and each shard's httptest server in
// member order.
func newFleet(t *testing.T, b *persist.Bundle, n int) (*shard.Router, http.Handler, []*httptest.Server) {
	t.Helper()
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("s%d", i+1)
	}
	members := make([]shard.Member, n)
	backends := make([]*httptest.Server, n)
	for i, name := range names {
		name := name
		srv := newServer(t, b, func(c *service.Config) {
			c.ShardName = name
			c.ShardMembers = names
		})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		backends[i] = ts
		members[i] = shard.Member{Name: name, Base: ts.URL}
	}
	r, err := shard.NewRouter(shard.RouterConfig{
		Members:        members,
		ShardTimeout:   30 * time.Second,
		HealthInterval: time.Hour, // health transitions driven by proxy errors in tests
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r, r.Handler(), backends
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func post(t *testing.T, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func sampleURLs(t *testing.T, h http.Handler, n int) []string {
	t.Helper()
	w := get(t, h, fmt.Sprintf("/v1/sample?n=%d", n))
	if w.Code != http.StatusOK {
		t.Fatalf("sample: %d: %s", w.Code, w.Body)
	}
	var sr struct {
		URLs []string `json:"urls"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.URLs) == 0 {
		t.Fatal("empty sample")
	}
	return sr.URLs
}

// TestFleetClassifyByteIdentical is the core differential: every
// sampled URL classified through the router must produce the same
// bytes a standalone server produces, on both the single and batch
// endpoints.
func TestFleetClassifyByteIdentical(t *testing.T) {
	b := fleetFixture(t)
	solo := newServer(t, b, nil).Handler()
	router, fleet, _ := newFleet(t, b, 3)

	urls := sampleURLs(t, solo, 60)

	// Single endpoint, URL by URL.
	shardsSeen := map[string]bool{}
	for _, u := range urls {
		want := get(t, solo, "/v1/classify?url="+url.QueryEscape(u))
		got := get(t, fleet, "/v1/classify?url="+url.QueryEscape(u))
		if got.Code != want.Code {
			t.Fatalf("classify %s: fleet status %d, standalone %d", u, got.Code, want.Code)
		}
		if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("classify %s: fleet body differs from standalone\nfleet: %s\nsolo:  %s", u, got.Body, want.Body)
		}
		name := got.Header().Get("X-Fleet-Shard")
		if name == "" {
			t.Fatalf("classify %s: router did not stamp X-Fleet-Shard", u)
		}
		shardsSeen[name] = true
		if want := router.Ring().OwnerOfURL(u); name != want {
			t.Fatalf("classify %s served by %s, ring owner is %s", u, name, want)
		}
	}
	if len(shardsSeen) < 2 {
		t.Fatalf("all %d sampled URLs routed to %v; sample too narrow to exercise the fleet", len(urls), shardsSeen)
	}

	// Batch endpoint: whole-body comparison, which also proves the
	// router's split/merge preserved input order exactly.
	want := post(t, solo, "/v1/classify/batch", map[string][]string{"urls": urls})
	got := post(t, fleet, "/v1/classify/batch", map[string][]string{"urls": urls})
	if got.Code != http.StatusOK || want.Code != http.StatusOK {
		t.Fatalf("batch status: fleet %d, standalone %d", got.Code, want.Code)
	}
	if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		gl := strings.Split(got.Body.String(), "\n")
		wl := strings.Split(want.Body.String(), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				t.Fatalf("batch line %d differs\nfleet: %s\nsolo:  %s", i, gl[i], wl[i])
			}
		}
		t.Fatal("batch bodies differ in length")
	}
	if got.Header().Get("X-Fleet-Partial") != "" {
		t.Error("healthy fleet flagged a batch partial")
	}
}

// TestFleetScatterSample checks the scattered population view: the
// fleet's merged sample must cover exactly the standalone population,
// each URL contributed by its ring owner.
func TestFleetScatterSample(t *testing.T) {
	b := fleetFixture(t)
	solo := newServer(t, b, nil).Handler()
	_, fleet, _ := newFleet(t, b, 3)

	var whole struct {
		Total int      `json:"total"`
		URLs  []string `json:"urls"`
	}
	w := get(t, solo, "/v1/sample?n=100000")
	if err := json.Unmarshal(w.Body.Bytes(), &whole); err != nil {
		t.Fatal(err)
	}

	var merged struct {
		Total   int            `json:"total"`
		Count   int            `json:"count"`
		URLs    []string       `json:"urls"`
		ByShard map[string]int `json:"by_shard"`
		Partial bool           `json:"partial"`
	}
	w = get(t, fleet, "/v1/sample?n=100000")
	if w.Code != http.StatusOK {
		t.Fatalf("fleet sample: %d: %s", w.Code, w.Body)
	}
	if err := json.Unmarshal(w.Body.Bytes(), &merged); err != nil {
		t.Fatal(err)
	}
	if merged.Partial {
		t.Fatal("healthy fleet returned a partial sample")
	}
	if merged.Total != whole.Total {
		t.Fatalf("fleet total = %d, standalone = %d", merged.Total, whole.Total)
	}
	if len(merged.URLs) != len(whole.URLs) {
		t.Fatalf("fleet sample carries %d URLs, standalone %d", len(merged.URLs), len(whole.URLs))
	}
	set := make(map[string]bool, len(whole.URLs))
	for _, u := range whole.URLs {
		set[u] = true
	}
	for _, u := range merged.URLs {
		if !set[u] {
			t.Fatalf("fleet sample carries %q, absent from the standalone population", u)
		}
	}
	contributed := 0
	for _, c := range merged.ByShard {
		contributed += c
	}
	if contributed != whole.Total {
		t.Fatalf("by_shard sums to %d, want %d", contributed, whole.Total)
	}
}

// TestFleetKilledShard degrades one shard and checks every degraded
// contract: flagged partials with Retry-After, per-line shard errors in
// batches, 503 (never a hang) on single requests — while the surviving
// shards' answers stay byte-identical to the standalone's.
func TestFleetKilledShard(t *testing.T) {
	b := fleetFixture(t)
	solo := newServer(t, b, nil).Handler()
	router, fleet, backends := newFleet(t, b, 3)

	urls := sampleURLs(t, solo, 60)
	ring := router.Ring()
	victim := ring.OwnerOfURL(urls[0])
	var victimIdx int
	for i, name := range ring.Members() {
		if name == victim {
			victimIdx = i
		}
	}
	backends[victimIdx].Close()

	// First hit on the dead shard takes the transport-error path: 503,
	// Retry-After, and the member marked down.
	w := get(t, fleet, "/v1/classify?url="+url.QueryEscape(urls[0]))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("classify via dead shard: status %d, want 503", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("degraded classify carries no Retry-After")
	}
	if !strings.Contains(w.Body.String(), "shard_unreachable") && !strings.Contains(w.Body.String(), "shard_down") {
		t.Errorf("degraded classify error = %s, want shard_unreachable/shard_down", w.Body)
	}

	// Known-down now: the short-circuit path answers without dialing.
	w = get(t, fleet, "/v1/classify?url="+url.QueryEscape(urls[0]))
	if w.Code != http.StatusServiceUnavailable || !strings.Contains(w.Body.String(), "shard_down") {
		t.Fatalf("known-down classify: status %d body %s, want 503 shard_down", w.Code, w.Body)
	}

	// Batch across the whole sample: flagged partial, dead shard's
	// lines are per-line errors, surviving lines byte-identical.
	want := post(t, solo, "/v1/classify/batch", map[string][]string{"urls": urls})
	got := post(t, fleet, "/v1/classify/batch", map[string][]string{"urls": urls})
	if got.Code != http.StatusOK {
		t.Fatalf("degraded batch: status %d", got.Code)
	}
	if p := got.Header().Get("X-Fleet-Partial"); !strings.Contains(p, victim) {
		t.Errorf("X-Fleet-Partial = %q, want it to name %s", p, victim)
	}
	if got.Header().Get("Retry-After") == "" {
		t.Error("degraded batch carries no Retry-After")
	}
	wantLines := splitLines(t, want.Body.Bytes())
	gotLines := splitLines(t, got.Body.Bytes())
	if len(gotLines) != len(urls) || len(wantLines) != len(urls) {
		t.Fatalf("line counts: fleet %d, solo %d, want %d", len(gotLines), len(wantLines), len(urls))
	}
	deadLines, liveLines := 0, 0
	for i, u := range urls {
		if ring.OwnerOfURL(u) == victim {
			deadLines++
			if !strings.Contains(gotLines[i], "shard_down") {
				t.Errorf("line %d (%s): owned by dead shard, got %s", i, u, gotLines[i])
			}
			continue
		}
		liveLines++
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d (%s): healthy-shard line diverged\nfleet: %s\nsolo:  %s", i, u, gotLines[i], wantLines[i])
		}
	}
	if deadLines == 0 || liveLines == 0 {
		t.Fatalf("degenerate split: %d dead lines, %d live lines", deadLines, liveLines)
	}

	// Scatter sample: partial, missing shard named, Retry-After set.
	w = get(t, fleet, "/v1/sample?n=100000")
	var merged struct {
		Partial       bool     `json:"partial"`
		MissingShards []string `json:"missing_shards"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &merged); err != nil {
		t.Fatal(err)
	}
	if !merged.Partial || len(merged.MissingShards) != 1 || merged.MissingShards[0] != victim {
		t.Errorf("degraded sample: partial=%v missing=%v, want partial naming %s", merged.Partial, merged.MissingShards, victim)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("degraded sample carries no Retry-After")
	}

	// Healthy-shard traffic still flows with zero 5xx.
	for _, u := range urls {
		if ring.OwnerOfURL(u) == victim {
			continue
		}
		if w := get(t, fleet, "/v1/classify?url="+url.QueryEscape(u)); w.Code != http.StatusOK {
			t.Fatalf("healthy-shard classify %s: status %d", u, w.Code)
		}
	}
}

// TestFleetClientDisconnectKeepsShardHealthy: a caller that hangs up is
// not a shard failure. A pre-cancelled request on each of the three leg
// kinds (single proxy, batch sub-stream, sample scatter) must leave
// every member healthy and the degraded counter at zero, so the next
// well-behaved request for the same URL is a plain 200.
func TestFleetClientDisconnectKeepsShardHealthy(t *testing.T) {
	b := fleetFixture(t)
	_, fleet, _ := newFleet(t, b, 2)
	urls := sampleURLs(t, fleet, 10)
	classify := "/v1/classify?url=" + url.QueryEscape(urls[0])

	gone, cancel := context.WithCancel(context.Background())
	cancel()
	w := httptest.NewRecorder()
	fleet.ServeHTTP(w, httptest.NewRequest(http.MethodGet, classify, nil).WithContext(gone))
	if w.Code != 499 || !strings.Contains(w.Body.String(), "client_closed_request") {
		t.Errorf("cancelled classify = %d %s, want 499 client_closed_request", w.Code, w.Body)
	}
	w = httptest.NewRecorder()
	fleet.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/sample?n=5", nil).WithContext(gone))
	if w.Code != 499 {
		t.Errorf("cancelled sample = %d %s, want 499", w.Code, w.Body)
	}
	raw, _ := json.Marshal(map[string][]string{"urls": urls})
	w = httptest.NewRecorder()
	fleet.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/classify/batch", bytes.NewReader(raw)).WithContext(gone))
	if strings.Contains(w.Body.String(), "shard_unreachable") {
		t.Errorf("cancelled batch blamed a shard: %s", w.Body)
	}

	if w := get(t, fleet, classify); w.Code != http.StatusOK {
		t.Fatalf("classify after a client hang-up = %d %s, want 200", w.Code, w.Body)
	}
	var m struct {
		Degraded int64 `json:"degraded"`
		Shards   map[string]struct {
			Healthy bool  `json:"healthy"`
			Failed  int64 `json:"failed"`
		} `json:"shards"`
	}
	if err := json.Unmarshal(get(t, fleet, "/metrics").Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if m.Degraded != 0 {
		t.Errorf("/metrics degraded = %d after client hang-ups, want 0", m.Degraded)
	}
	for name, sh := range m.Shards {
		if !sh.Healthy || sh.Failed != 0 {
			t.Errorf("shard %s: healthy=%v failed=%d after client hang-ups", name, sh.Healthy, sh.Failed)
		}
	}
}

// TestFleetRebalance moves one domain's hash range to another member
// and checks the full handoff: generation bump, router cutover, shard
// owned views converging, verdicts still byte-identical.
func TestFleetRebalance(t *testing.T) {
	b := fleetFixture(t)
	solo := newServer(t, b, nil).Handler()
	router, fleet, backends := newFleet(t, b, 3)

	urls := sampleURLs(t, solo, 20)
	target := urls[0]
	domain := urlutil.Domain(target)
	from := router.Ring().Owner(domain)
	var to string
	for _, m := range router.Ring().Members() {
		if m != from {
			to = m
			break
		}
	}

	w := post(t, fleet, "/admin/rebalance", map[string]string{"domain": domain, "to": to})
	if w.Code != http.StatusOK {
		t.Fatalf("rebalance: %d: %s", w.Code, w.Body)
	}
	var res shard.RebalanceResult
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.From != from || res.To != to {
		t.Fatalf("rebalance result %+v, want from=%s to=%s", res, from, to)
	}
	if router.Ring().Owner(domain) != to {
		t.Fatalf("router still routes %s to %s", domain, router.Ring().Owner(domain))
	}

	// The moved domain now serves from the new owner, byte-identically.
	want := get(t, solo, "/v1/classify?url="+url.QueryEscape(target))
	got := get(t, fleet, "/v1/classify?url="+url.QueryEscape(target))
	if got.Header().Get("X-Fleet-Shard") != to {
		t.Errorf("post-rebalance classify served by %q, want %q", got.Header().Get("X-Fleet-Shard"), to)
	}
	if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Errorf("post-rebalance classify diverged\nfleet: %s\nsolo:  %s", got.Body, want.Body)
	}

	// Every shard's owned sample view reflects the pushed ring: exactly
	// one owner lists the moved URL, and it is the new one.
	owners := []string{}
	for i, name := range router.Ring().Members() {
		resp, err := http.Get(backends[i].URL + "/v1/sample?view=owned&n=100000")
		if err != nil {
			t.Fatal(err)
		}
		var sr struct {
			URLs []string `json:"urls"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		for _, u := range sr.URLs {
			if u == target {
				owners = append(owners, name)
			}
		}
	}
	if len(owners) != 1 || owners[0] != to {
		t.Errorf("owned views list %s under %v, want exactly [%s]", target, owners, to)
	}

	// Generation visible on the shard admin plane.
	resp, err := http.Get(backends[0].URL + "/v1/shard/info")
	if err != nil {
		t.Fatal(err)
	}
	var info struct {
		Generation int64 `json:"generation"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if info.Generation != res.Generation {
		t.Errorf("shard generation = %d, want %d", info.Generation, res.Generation)
	}

	// Moving the range back restores the original owner (latest-wins).
	w = post(t, fleet, "/admin/rebalance", map[string]string{"domain": domain, "to": from})
	if w.Code != http.StatusOK {
		t.Fatalf("rebalance back: %d: %s", w.Code, w.Body)
	}
	if router.Ring().Owner(domain) != from {
		t.Error("moving the range back did not restore the original owner")
	}
}

func splitLines(t *testing.T, body []byte) []string {
	t.Helper()
	var out []string
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		out = append(out, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
