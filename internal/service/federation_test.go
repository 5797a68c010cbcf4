package service

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	neturl "net/url"
	"sort"
	"strings"
	"testing"

	"permadead/internal/federation"
	"permadead/internal/worldgen"
)

// TestFederationSingleMemberParity is the serving-layer half of the
// byte-parity guarantee: a server configured with the default
// single-member federation must answer /v1/availability and
// /v1/classify with exactly the bytes the federation-less server
// produces — including NOT emitting the "federation" response block.
func TestFederationSingleMemberParity(t *testing.T) {
	bare := newServer(t, nil)
	m := federation.DefaultManifest()
	fedded := newServer(t, func(c *Config) { c.Federation = &m })

	if fedded.federated() {
		t.Fatal("single-member federation must not take the hedged path")
	}

	urls := make([]string, 0, 20)
	for _, rec := range bare.order {
		urls = append(urls, rec.URL)
		if len(urls) == 20 {
			break
		}
	}
	paths := make([]string, 0, len(urls)*3+2)
	for _, u := range urls {
		esc := neturl.QueryEscape(u)
		paths = append(paths,
			"/v1/availability?url="+esc,
			"/v1/availability?url="+esc+"&accept=any&timeout=200ms",
			"/v1/classify?url="+esc,
		)
	}
	paths = append(paths,
		"/v1/availability?url="+neturl.QueryEscape("http://never-archived.example/x"),
		"/v1/availability?url="+neturl.QueryEscape(urls[0])+"&ts=20170101&asof=20180101",
	)

	hBare, hFed := bare.Handler(), fedded.Handler()
	for _, p := range paths {
		a := httptest.NewRecorder()
		b := httptest.NewRecorder()
		hBare.ServeHTTP(a, httptest.NewRequest(http.MethodGet, p, nil))
		hFed.ServeHTTP(b, httptest.NewRequest(http.MethodGet, p, nil))
		if a.Code != b.Code {
			t.Fatalf("%s: status %d (bare) vs %d (federated)", p, a.Code, b.Code)
		}
		if !bytes.Equal(a.Body.Bytes(), b.Body.Bytes()) {
			t.Errorf("%s: federated body diverged:\n bare %s\n fed  %s", p, a.Body, b.Body)
		}
	}

	// No federation configured → no admin endpoints.
	req := httptest.NewRequest(http.MethodGet, "/v1/federation/info", nil)
	w := httptest.NewRecorder()
	hBare.ServeHTTP(w, req)
	if w.Code != http.StatusNotFound {
		t.Fatalf("bare server /v1/federation/info = %d, want 404", w.Code)
	}
}

// TestFederationDegradedServing drives the multi-archive path: hedged
// lookups answer with a federation block, an admin down-flip degrades
// coverage without a single 5xx, and /v1/federation/info reports the
// member population, liveness, and hedging counters.
func TestFederationDegradedServing(t *testing.T) {
	b, _ := fixture(t)
	m := worldgen.FederationManifest(b.Params, 3)
	s := newServer(t, func(c *Config) { c.Federation = &m })
	h := s.Handler()

	if !s.federated() {
		t.Fatal("3-member manifest should federate")
	}

	// An archived URL: the identity primary answers, and the response
	// carries the federation block single-archive responses never have.
	archived := s.order[0].URL
	var avail struct {
		Available  bool `json:"available"`
		Federation *struct {
			Member   string   `json:"member"`
			Degraded []string `json:"degraded"`
		} `json:"federation"`
	}
	getJSON(t, h, "/v1/availability?url="+neturl.QueryEscape(archived), http.StatusOK, &avail)
	if avail.Federation == nil {
		t.Fatal("federated availability response is missing the federation block")
	}

	// Kill one secondary through the admin plane.
	flip := strings.NewReader(`{"member":"archive.today","down":true}`)
	req := httptest.NewRequest(http.MethodPost, "/v1/federation/member", flip)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("member flip = %d (body %s)", w.Code, w.Body)
	}

	// A never-archived URL misses on the primary and falls through to
	// the secondaries, so the dead member is consulted: the answer must
	// be a degraded 200 naming it — never a 5xx.
	var degraded struct {
		Available  bool `json:"available"`
		Federation *struct {
			Degraded []string `json:"degraded"`
		} `json:"federation"`
	}
	getJSON(t, h, "/v1/availability?url="+neturl.QueryEscape("http://never-archived.example/x"),
		http.StatusOK, &degraded)
	if degraded.Available {
		t.Fatal("never-archived URL reported available")
	}
	if degraded.Federation == nil || len(degraded.Federation.Degraded) == 0 {
		t.Fatalf("down member not surfaced as degraded coverage: %+v", degraded.Federation)
	}
	found := false
	for _, d := range degraded.Federation.Degraded {
		if strings.Contains(d, "archive.today") {
			found = true
		}
	}
	if !found {
		t.Fatalf("degraded list %v does not name the down member", degraded.Federation.Degraded)
	}

	var info federationInfoResponse
	getJSON(t, h, "/v1/federation/info", http.StatusOK, &info)
	if len(info.Members) != 3 {
		t.Fatalf("info reports %d members, want 3", len(info.Members))
	}
	downs := 0
	for _, mem := range info.Members {
		if mem.Down {
			downs++
		}
	}
	if downs != 1 {
		t.Fatalf("info reports %d down members, want 1", downs)
	}
	if info.Epoch != 1 {
		t.Fatalf("epoch = %d after one flip, want 1", info.Epoch)
	}
	if info.Stats.Queries == 0 {
		t.Fatal("federation stats recorded no queries")
	}

	// Revive the member; a consulted-members retry now sees no
	// degradation, proving the epoch bump kept the degraded answer out
	// of the positive/negative caches.
	req = httptest.NewRequest(http.MethodPost, "/v1/federation/member",
		strings.NewReader(`{"member":"archive.today","down":false}`))
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("member revive = %d", w.Code)
	}
	var revived struct {
		Federation *struct {
			Degraded []string `json:"degraded"`
		} `json:"federation"`
	}
	getJSON(t, h, "/v1/availability?url="+neturl.QueryEscape("http://never-archived.example/x"),
		http.StatusOK, &revived)
	if revived.Federation != nil && len(revived.Federation.Degraded) != 0 {
		t.Fatalf("revived member still degraded: %v", revived.Federation.Degraded)
	}
	if n := s.edge.Count5xx(); n != 0 {
		t.Errorf("%d 5xx responses with a member down", n)
	}
}

// TestFederationHedgedTailAndGain is what the skewed secondaries buy
// over every sampled link, in simulated time and so deterministically:
// the budget-and-hedge bound keeps the served lookup latency's p99
// within 2x the bare archive's (whose tail is the planted slow lookups
// of §4.1), hedges actually fire, and at least one sampled link gains a
// usable copy the primary alone cannot deliver.
func TestFederationHedgedTailAndGain(t *testing.T) {
	b, _ := fixture(t)
	m := worldgen.FederationManifest(b.Params, 3)
	bare := newServer(t, nil)
	fed := newServer(t, func(c *Config) { c.Federation = &m })

	p99 := func(s *Server) int64 {
		h := s.Handler()
		lats := make([]int64, 0, len(s.order))
		for _, rec := range s.order {
			var a availabilityResponse
			getJSON(t, h, "/v1/availability?url="+neturl.QueryEscape(rec.URL), http.StatusOK, &a)
			lats = append(lats, a.LatencyMS)
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		return lats[len(lats)*99/100]
	}
	bareP99, fedP99 := p99(bare), p99(fed)
	t.Logf("bare p99 %dms, hedged p99 %dms", bareP99, fedP99)
	if fedP99 > 2*bareP99 {
		t.Errorf("hedged p99 %dms exceeds 2x the single-archive p99 %dms", fedP99, bareP99)
	}

	var info federationInfoResponse
	getJSON(t, fed.Handler(), "/v1/federation/info", http.StatusOK, &info)
	if info.Stats.HedgesFired < 1 {
		t.Errorf("no hedges fired across %d lookups", len(fed.order))
	}
	if info.UsableGain < 1 {
		t.Errorf("3-member federation adds no usable coverage (gain %d)", info.UsableGain)
	}
	if n := bare.edge.Count5xx() + fed.edge.Count5xx(); n != 0 {
		t.Errorf("%d 5xx responses", n)
	}
}
