package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	neturl "net/url"
	"sync"
	"testing"
	"time"

	"permadead/internal/core"
	"permadead/internal/edge"
	"permadead/internal/fetch"
	"permadead/internal/persist"
	"permadead/internal/simweb"
	"permadead/internal/worldgen"
)

// The small universe is expensive to generate, so the package shares
// one bundle and one offline (batch) report — the golden the serving
// layer is compared against.
var (
	fixtureOnce   sync.Once
	fixtureBundle *persist.Bundle
	fixtureReport *core.Report
	fixtureErr    error
)

func fixture(t testing.TB) (*persist.Bundle, *core.Report) {
	t.Helper()
	fixtureOnce.Do(func() {
		u := worldgen.Generate(worldgen.SmallParams())
		b := persist.FromUniverse(u)
		cfg := core.DefaultConfig()
		cfg.SampleSize = u.Params.SampleSize
		cfg.CrawlArticles = 0
		st := &core.Study{
			Config: cfg,
			Wiki:   b.Wiki,
			Arch:   b.Archive,
			Client: fetch.New(simweb.NewTransport(b.World, cfg.StudyTime)),
			Ranks:  b.World,
		}
		r, err := st.Run(context.Background())
		if err != nil {
			fixtureErr = err
			return
		}
		fixtureBundle, fixtureReport = b, r
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return fixtureBundle, fixtureReport
}

// newServer builds a Server over the shared bundle with the study
// configured identically to the offline run.
func newServer(t testing.TB, mut func(*Config)) *Server {
	t.Helper()
	b, _ := fixture(t)
	cfg := DefaultConfig()
	cfg.Study.SampleSize = b.Params.SampleSize
	cfg.Study.CrawlArticles = 0
	if mut != nil {
		mut(&cfg)
	}
	s, err := New(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func getJSON(t *testing.T, h http.Handler, path string, wantStatus int, out any) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != wantStatus {
		t.Fatalf("GET %s = %d, want %d (body: %s)", path, w.Code, wantStatus, w.Body.String())
	}
	if out != nil {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			t.Fatalf("GET %s: bad JSON: %v (body: %s)", path, err, w.Body.String())
		}
	}
	return w
}

// TestClassifyMatchesOfflineStudy is the acceptance golden: for every
// link in the sample, /v1/classify must return exactly the verdict the
// offline batch study assigned, with zero 5xx along the way.
func TestClassifyMatchesOfflineStudy(t *testing.T) {
	_, r := fixture(t)
	s := newServer(t, nil)
	h := s.Handler()

	if s.SampleSize() != r.N() {
		t.Fatalf("server serves %d links, offline study sampled %d", s.SampleSize(), r.N())
	}
	for i, rec := range r.Records {
		var c core.Classification
		getJSON(t, h, "/v1/classify?url="+queryEscape(rec.URL), http.StatusOK, &c)
		if c.Verdict != r.Verdicts[i] {
			t.Errorf("%s: served verdict %q, offline study %q", rec.URL, c.Verdict, r.Verdicts[i])
		}
		if c.URL != rec.URL {
			t.Errorf("echoed URL %q, want %q", c.URL, rec.URL)
		}
	}
	if n := s.edge.Count5xx(); n != 0 {
		t.Errorf("%d 5xx responses during golden sweep", n)
	}
}

// TestClassifyUnknownLink checks the envelope for URLs outside the
// sample.
func TestClassifyUnknownLink(t *testing.T) {
	s := newServer(t, nil)
	var env edge.ErrorEnvelope
	getJSON(t, s.Handler(), "/v1/classify?url=http://not.in.sample/x", http.StatusNotFound, &env)
	if env.Error.Code != "unknown_link" {
		t.Errorf("code = %q, want unknown_link", env.Error.Code)
	}
	getJSON(t, s.Handler(), "/v1/classify", http.StatusBadRequest, &env)
	if env.Error.Code != "missing_url" {
		t.Errorf("code = %q, want missing_url", env.Error.Code)
	}
}

// TestStatusEndpoint compares the served live verdict with the
// offline study's Figure 4 classification for the same URL.
func TestStatusEndpoint(t *testing.T) {
	_, r := fixture(t)
	s := newServer(t, nil)
	for i := 0; i < 5 && i < r.N(); i++ {
		var resp statusResponse
		getJSON(t, s.Handler(), "/v1/status?url="+queryEscape(r.Records[i].URL), http.StatusOK, &resp)
		if want := r.LiveResults[i].Category.String(); resp.Live.Category != want {
			t.Errorf("%s: served category %q, offline %q", r.Records[i].URL, resp.Live.Category, want)
		}
	}
}

// TestAvailabilityEndpoint exercises the paper's two policy knobs: a
// tiny timeout makes every lookup "time out" (the §4.1 failure mode),
// and accept=any admits 3xx copies that accept=usable rejects (§4.2).
func TestAvailabilityEndpoint(t *testing.T) {
	_, r := fixture(t)
	s := newServer(t, nil)
	h := s.Handler()

	if len(r.Pre200) == 0 || len(r.WithRedirCopies) == 0 {
		t.Skip("fixture lacks pre-200 or redirect-copy links")
	}
	pre := r.Records[r.Pre200[0]].URL

	// Unbounded lookup over a link with an initial-200 copy: found.
	var resp availabilityResponse
	getJSON(t, h, "/v1/availability?url="+queryEscape(pre), http.StatusOK, &resp)
	if !resp.Available || resp.Snapshot == nil || resp.Snapshot.Status != 200 {
		t.Errorf("usable lookup for %s: %+v", pre, resp)
	}
	if resp.TimedOut {
		t.Errorf("unbounded lookup timed out: %+v", resp)
	}

	// The same link under IABot's failure mode: a timeout below the
	// simulated lookup latency answers timed_out with no snapshot.
	resp = availabilityResponse{}
	getJSON(t, h, "/v1/availability?url="+queryEscape(pre)+"&timeout=1ms", http.StatusOK, &resp)
	if !resp.TimedOut || resp.Available || resp.Snapshot != nil {
		t.Errorf("1ms lookup should time out: %+v", resp)
	}

	// A link whose only pre-mark copies are redirects: accept=any sees
	// a copy that accept=usable may not.
	redir := r.Records[r.WithRedirCopies[0]].URL
	resp = availabilityResponse{}
	getJSON(t, h, "/v1/availability?url="+queryEscape(redir)+"&accept=any", http.StatusOK, &resp)
	if !resp.Available {
		t.Errorf("accept=any found nothing for %s: %+v", redir, resp)
	}

	// Malformed knobs are envelope'd 400s.
	var env edge.ErrorEnvelope
	getJSON(t, h, "/v1/availability?url="+queryEscape(pre)+"&timeout=banana", http.StatusBadRequest, &env)
	if env.Error.Code != "bad_timeout" {
		t.Errorf("code = %q, want bad_timeout", env.Error.Code)
	}
	getJSON(t, h, "/v1/availability?url="+queryEscape(pre)+"&accept=maybe", http.StatusBadRequest, &env)
	if env.Error.Code != "bad_accept" {
		t.Errorf("code = %q, want bad_accept", env.Error.Code)
	}
	getJSON(t, h, "/v1/availability", http.StatusBadRequest, &env)
	if env.Error.Code != "missing_url" {
		t.Errorf("code = %q, want missing_url", env.Error.Code)
	}
}

// TestSampleEndpoint checks pagination over the served population.
func TestSampleEndpoint(t *testing.T) {
	_, r := fixture(t)
	s := newServer(t, nil)
	var resp edge.SampleResponse
	getJSON(t, s.Handler(), "/v1/sample?n=5", http.StatusOK, &resp)
	if resp.Total != r.N() || resp.Count != 5 || len(resp.URLs) != 5 {
		t.Errorf("sample: %+v, want total %d count 5", resp, r.N())
	}
	var page2 edge.SampleResponse
	getJSON(t, s.Handler(), "/v1/sample?n=5&offset=5", http.StatusOK, &page2)
	if page2.URLs[0] == resp.URLs[0] {
		t.Error("offset=5 returned the first page again")
	}
}

// TestResponseCacheAndMetrics drives repeat traffic and asserts the
// acceptance criteria's observability surface: a non-zero cache hit
// rate, per-endpoint request and latency counters, and memo stats,
// all visible through /metrics.
func TestResponseCacheAndMetrics(t *testing.T) {
	_, r := fixture(t)
	s := newServer(t, nil)
	h := s.Handler()

	u := queryEscape(r.Records[0].URL)
	first := getJSON(t, h, "/v1/classify?url="+u, http.StatusOK, nil)
	if got := first.Header().Get("X-Cache"); got != "miss" {
		t.Errorf("first classify X-Cache = %q, want miss", got)
	}
	second := getJSON(t, h, "/v1/classify?url="+u, http.StatusOK, nil)
	if got := second.Header().Get("X-Cache"); got != "hit" {
		t.Errorf("repeat classify X-Cache = %q, want hit", got)
	}
	if first.Body.String() != second.Body.String() {
		t.Error("cached response differs from computed response")
	}
	getJSON(t, h, "/v1/status?url="+u, http.StatusOK, nil)
	getJSON(t, h, "/v1/status?url="+u, http.StatusOK, nil)
	getJSON(t, h, "/v1/availability?url="+u, http.StatusOK, nil)
	getJSON(t, h, "/v1/availability?url="+u, http.StatusOK, nil)
	// A never-archived link drives classification through the spatial
	// scans, which read the archive via the study memo.
	if len(r.NoCopies) > 0 {
		getJSON(t, h, "/v1/classify?url="+queryEscape(r.Records[r.NoCopies[0]].URL), http.StatusOK, nil)
	}

	st := s.cache.Stats()
	if st.Hits == 0 || st.HitRate == 0 {
		t.Errorf("cache shows no hits after repeat traffic: %+v", st)
	}

	var m map[string]json.RawMessage
	getJSON(t, h, "/metrics", http.StatusOK, &m)
	for _, key := range []string{
		"requests_classify", "requests_status", "requests_availability", "requests_sample",
		"latency_classify", "latency_status", "latency_availability", "latency_sample",
		"cache", "memo", "admission",
	} {
		if _, ok := m[key]; !ok {
			t.Errorf("/metrics missing %q", key)
		}
	}
	var cacheStats CacheStats
	if err := json.Unmarshal(m["cache"], &cacheStats); err != nil {
		t.Fatalf("cache stats: %v", err)
	}
	if cacheStats.Hits == 0 {
		t.Errorf("/metrics cache hits = 0: %s", m["cache"])
	}
	var lat struct {
		Count int64 `json:"count"`
	}
	if err := json.Unmarshal(m["latency_classify"], &lat); err != nil {
		t.Fatalf("latency histogram: %v", err)
	}
	if lat.Count == 0 {
		t.Error("/metrics classify latency histogram is empty")
	}
	var memoStats struct{ Hits, Misses int64 }
	if err := json.Unmarshal(m["memo"], &memoStats); err != nil {
		t.Fatalf("memo stats: %v", err)
	}
	if memoStats.Misses == 0 {
		t.Error("/metrics memo stats show no activity")
	}
}

// TestAdmissionShedsAtCapacity fills the single admission slot with a
// blocked classification, then checks the next request queues until
// its deadline and is shed with the overload envelope.
func TestAdmissionShedsAtCapacity(t *testing.T) {
	_, r := fixture(t)
	s := newServer(t, func(c *Config) { c.MaxInFlight = 1 })
	h := s.Handler()

	entered := make(chan struct{})
	release := make(chan struct{})
	s.testHookClassify = func() {
		close(entered)
		<-release
	}

	u := queryEscape(r.Records[0].URL)
	done := make(chan int, 1)
	go func() {
		req := httptest.NewRequest(http.MethodGet, "/v1/classify?url="+u, nil)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		done <- w.Code
	}()
	<-entered

	// The queued request's own (client) deadline expires before a slot
	// frees, so it is shed with the overload envelope rather than the
	// server's 10s budget keeping it queued.
	shortCtx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	req := httptest.NewRequest(http.MethodGet, "/v1/sample?n=1", nil).WithContext(shortCtx)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("queued request = %d, want 503 (body: %s)", w.Code, w.Body.String())
	}
	var env edge.ErrorEnvelope
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if env.Error.Code != "overloaded" {
		t.Errorf("code = %q, want overloaded", env.Error.Code)
	}
	if s.edge.Gate.Rejected() == 0 {
		t.Error("admission rejected counter did not move")
	}

	close(release)
	if code := <-done; code != http.StatusOK {
		t.Errorf("blocked classify finished %d, want 200", code)
	}
}

func queryEscape(s string) string { return neturl.QueryEscape(s) }

// TestStatusRetryKnobs exercises the /v1/status retry policy: default
// requests carry no policy echo and touch no retry counters, opting in
// echoes the policy and counts attempts, and malformed knobs are 400s.
func TestStatusRetryKnobs(t *testing.T) {
	_, r := fixture(t)
	s := newServer(t, nil)
	h := s.Handler()
	url := queryEscape(r.Records[0].URL)

	var def statusResponse
	getJSON(t, h, "/v1/status?url="+url, http.StatusOK, &def)
	if def.Policy != nil {
		t.Errorf("default request echoed a policy: %+v", def.Policy)
	}
	if got := s.retryStats.Snapshot(); got.Attempts != 0 {
		t.Errorf("default request consumed retry attempts: %+v", got)
	}

	var with statusResponse
	getJSON(t, h, "/v1/status?url="+url+"&retries=3&confirm=2&spacing=45", http.StatusOK, &with)
	if with.Policy == nil || with.Policy.Retries != 3 ||
		with.Policy.ConfirmChecks != 2 || with.Policy.SpacingDays != 45 {
		t.Fatalf("policy echo = %+v", with.Policy)
	}
	// The universe has no fault windows, so the verdict matches the
	// single-GET one; only the accounting differs.
	if with.Live.Category != def.Live.Category {
		t.Errorf("retry policy changed verdict in a fault-free universe: %q vs %q",
			with.Live.Category, def.Live.Category)
	}
	st := s.retryStats.Snapshot()
	if st.Attempts == 0 || st.Checks == 0 {
		t.Errorf("opt-in request recorded no retry stats: %+v", st)
	}

	// The policy verdict is cached under its own key, not the default's.
	var cached statusResponse
	getJSON(t, h, "/v1/status?url="+url+"&retries=3&confirm=2&spacing=45", http.StatusOK, &cached)
	if cached.Policy == nil {
		t.Error("cached policy response lost its policy echo")
	}
	getJSON(t, h, "/v1/status?url="+url, http.StatusOK, &def)
	if def.Policy != nil {
		t.Error("default request served the policy variant from cache")
	}

	var env edge.ErrorEnvelope
	getJSON(t, h, "/v1/status?url="+url+"&retries=0", http.StatusBadRequest, &env)
	if env.Error.Code != "bad_retries" {
		t.Errorf("code = %q", env.Error.Code)
	}
	getJSON(t, h, "/v1/status?url="+url+"&confirm=banana", http.StatusBadRequest, &env)
	if env.Error.Code != "bad_confirm" {
		t.Errorf("code = %q", env.Error.Code)
	}
	getJSON(t, h, "/v1/status?url="+url+"&spacing=-1", http.StatusBadRequest, &env)
	if env.Error.Code != "bad_spacing" {
		t.Errorf("code = %q", env.Error.Code)
	}
}
