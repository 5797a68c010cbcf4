package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"permadead/internal/core"
	"permadead/internal/edge"
	"permadead/internal/shard"
	"permadead/internal/urlutil"
)

// flushCountingRecorder counts Flush calls reaching the underlying
// writer: the batch endpoint's flushes pass through the statusRecorder
// wrapper, and each one is a write(2) on a real connection.
type flushCountingRecorder struct {
	*httptest.ResponseRecorder
	flushes int
}

func (f *flushCountingRecorder) Flush() { f.flushes++ }

// postBatch drives one /v1/classify/batch request and returns the
// recorder plus the parsed NDJSON lines.
type batchLine struct {
	URL     string          `json:"url"`
	Verdict core.Verdict    `json:"verdict"`
	Live    core.LiveStatus `json:"live"`
	Error   *edge.ErrorBody `json:"error"`
}

func postBatch(t *testing.T, h http.Handler, urls []string, wantStatus int) (*flushCountingRecorder, []batchLine) {
	t.Helper()
	body, err := json.Marshal(map[string][]string{"urls": urls})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/classify/batch", bytes.NewReader(body))
	w := &flushCountingRecorder{ResponseRecorder: httptest.NewRecorder()}
	h.ServeHTTP(w, req)
	if w.Code != wantStatus {
		t.Fatalf("POST /v1/classify/batch = %d, want %d (body: %s)", w.Code, wantStatus, w.Body.String())
	}
	if wantStatus != http.StatusOK {
		return w, nil
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/x-ndjson") {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}
	var lines []batchLine
	for _, raw := range strings.Split(strings.TrimSpace(w.Body.String()), "\n") {
		var l batchLine
		if err := json.Unmarshal([]byte(raw), &l); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", raw, err)
		}
		lines = append(lines, l)
	}
	return w, lines
}

// TestBatchMatchesOfflineStudy is the batch golden: one POST carrying
// the whole sample must stream back, in input order, exactly the
// verdicts the offline batch study assigned. When lines reach the
// client is TestBatchStreamsWhileComputing's subject.
func TestBatchMatchesOfflineStudy(t *testing.T) {
	_, r := fixture(t)
	s := newServer(t, nil)

	urls := make([]string, r.N())
	for i, rec := range r.Records {
		urls[i] = rec.URL
	}
	w, lines := postBatch(t, s.Handler(), urls, http.StatusOK)
	if len(lines) != len(urls) {
		t.Fatalf("%d NDJSON lines for %d urls", len(lines), len(urls))
	}
	for i, l := range lines {
		if l.Error != nil {
			t.Errorf("line %d (%s): unexpected error %+v", i, urls[i], l.Error)
			continue
		}
		if l.URL != urls[i] {
			t.Errorf("line %d: url %q, want %q (stream out of order)", i, l.URL, urls[i])
		}
		if l.Verdict != r.Verdicts[i] {
			t.Errorf("%s: batch verdict %q, offline study %q", urls[i], l.Verdict, r.Verdicts[i])
		}
	}
	if w.flushes < 1 || w.flushes > len(urls) {
		t.Errorf("%d flushes for %d lines; want at least one and at most one per line", w.flushes, len(urls))
	}
	if n := s.edge.Count5xx(); n != 0 {
		t.Errorf("%d 5xx responses during batch golden", n)
	}

	// A repeat of the same batch answers from the caches except for
	// links whose live half went through a transient failure — those
	// are deliberately never memoized, so each re-leads a computation.
	transient := 0
	for _, l := range lines {
		if l.Error == nil && l.Live.Transient() {
			transient++
		}
	}
	leadersBefore := s.cache.flightStats().Leaders
	_, again := postBatch(t, s.Handler(), urls, http.StatusOK)
	if len(again) != len(urls) {
		t.Fatalf("repeat batch: %d lines for %d urls", len(again), len(urls))
	}
	if got := int(s.cache.flightStats().Leaders - leadersBefore); got > transient {
		t.Errorf("repeat batch led %d new computations, want at most the %d transient lines", got, transient)
	}
}

// flushTrackingWriter sits between a real connection's ResponseWriter
// and the handler, counting flushes and remembering whether bytes were
// written after the last one.
type flushTrackingWriter struct {
	http.ResponseWriter
	flushes int
	dirty   bool
}

func (f *flushTrackingWriter) Write(p []byte) (int, error) {
	f.dirty = true
	return f.ResponseWriter.Write(p)
}

func (f *flushTrackingWriter) Flush() {
	f.flushes++
	f.dirty = false
	f.ResponseWriter.(http.Flusher).Flush()
}

// TestBatchStreamsWhileComputing is the streaming contract, over a
// real loopback connection: a ready line is never held while a later
// one computes. Line k of a batch is the only cache miss and its
// computation is parked on the test hook; the client must receive
// lines 0..k-1 in full while it is parked. The stream buffers between
// waits — at most one flush per line — and ends flushed.
func TestBatchStreamsWhileComputing(t *testing.T) {
	_, r := fixture(t)
	const n, k = 12, 7

	// Warm a window of the sample and keep the n-1 lines that cached
	// (a transient live half is never memoized); line k is a link from
	// outside the window, so it alone misses.
	s := newServer(t, nil)
	window := make([]string, 4*n)
	seen := make(map[string]bool)
	for i := range window {
		window[i] = r.Records[i].URL
		seen[urlutil.SchemeAgnosticKey(window[i])] = true
	}
	_, warmed := postBatch(t, s.Handler(), window, http.StatusOK)
	var urls []string
	for i, l := range warmed {
		if len(urls) < n-1 && l.Error == nil && !l.Live.Transient() {
			urls = append(urls, window[i])
		}
	}
	var held string
	for _, rec := range r.Records[len(window):] {
		if !seen[urlutil.SchemeAgnosticKey(rec.URL)] {
			held = rec.URL
			break
		}
	}
	if len(urls) < n-1 || held == "" {
		t.Fatalf("fixture too small: %d cacheable lines, held %q", len(urls), held)
	}
	urls = append(urls[:k], append([]string{held}, urls[k:]...)...)

	entered := make(chan struct{})
	release := make(chan struct{})
	var releaseOnce sync.Once
	unpark := func() { releaseOnce.Do(func() { close(release) }) }
	s.testHookClassify = func() {
		close(entered) // a second miss would panic here: only line k computes
		<-release
	}

	var tw *flushTrackingWriter
	served := make(chan struct{})
	h := s.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		tw = &flushTrackingWriter{ResponseWriter: w}
		h.ServeHTTP(tw, req)
		close(served)
	}))
	defer srv.Close()
	defer unpark() // before Close, which waits for the parked handler

	body, err := json.Marshal(map[string][]string{"urls": urls})
	if err != nil {
		t.Fatal(err)
	}
	// The deadline turns a stream that holds lines back into a failed
	// read rather than a hung test.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/classify/batch", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	lines := bufio.NewReader(resp.Body)
	readLine := func(i int) {
		t.Helper()
		raw, err := lines.ReadBytes('\n')
		if err != nil {
			t.Fatalf("line %d: %v (read %q)", i, err, raw)
		}
		var l batchLine
		if err := json.Unmarshal(raw, &l); err != nil || l.URL != urls[i] || l.Error != nil {
			t.Fatalf("line %d = %q (%v), want the verdict for %s", i, raw, err, urls[i])
		}
	}
	for i := 0; i < k; i++ {
		readLine(i)
	}
	select {
	case <-entered:
	case <-ctx.Done():
		t.Fatal("line k never reached the classify hook")
	}
	unpark()
	for i := k; i < n; i++ {
		readLine(i)
	}
	if _, err := lines.ReadByte(); err != io.EOF {
		t.Fatalf("after %d lines: %v, want EOF", n, err)
	}
	<-served
	if tw.dirty {
		t.Error("the stream ended with unflushed bytes")
	}
	if tw.flushes < 2 || tw.flushes > n {
		t.Errorf("%d flushes for %d lines with one wait; want at least 2 and at most one per line", tw.flushes, n)
	}
}

// TestBatchErrorLines: per-link failures become NDJSON error lines in
// place, not stream aborts — the surrounding links still classify.
func TestBatchErrorLines(t *testing.T) {
	_, r := fixture(t)
	s := newServer(t, nil)

	urls := []string{r.Records[0].URL, "http://not.in.sample/x", "", r.Records[1].URL}
	_, lines := postBatch(t, s.Handler(), urls, http.StatusOK)
	if len(lines) != 4 {
		t.Fatalf("%d lines, want 4", len(lines))
	}
	if lines[0].Error != nil || lines[0].Verdict == "" {
		t.Errorf("line 0: %+v, want a verdict", lines[0])
	}
	if lines[1].Error == nil || lines[1].Error.Code != "unknown_link" {
		t.Errorf("line 1: %+v, want unknown_link error", lines[1])
	}
	if lines[2].Error == nil || lines[2].Error.Code != "missing_url" {
		t.Errorf("line 2: %+v, want missing_url error", lines[2])
	}
	if lines[3].Error != nil || lines[3].URL != r.Records[1].URL {
		t.Errorf("line 3: %+v, want a verdict for %s", lines[3], r.Records[1].URL)
	}
}

// TestBatchLimits covers the request-shape rejections.
func TestBatchLimits(t *testing.T) {
	_, r := fixture(t)
	h := newServer(t, nil).Handler()

	postErr := func(body string) edge.ErrorEnvelope {
		t.Helper()
		req := httptest.NewRequest(http.MethodPost, "/v1/classify/batch", strings.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		var env edge.ErrorEnvelope
		if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
			t.Fatalf("bad envelope %q: %v", w.Body.String(), err)
		}
		return env
	}

	if env := postErr(`{"urls": []}`); env.Error.Code != "empty_batch" {
		t.Errorf("empty batch code = %q, want empty_batch", env.Error.Code)
	}
	if env := postErr(`{not json`); env.Error.Code != "bad_body" {
		t.Errorf("malformed body code = %q, want bad_body", env.Error.Code)
	}

	urls := make([]string, edge.MaxBatchLinks+1)
	for i := range urls {
		urls[i] = r.Records[0].URL
	}
	body, _ := json.Marshal(map[string][]string{"urls": urls})
	req := httptest.NewRequest(http.MethodPost, "/v1/classify/batch", bytes.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch = %d, want 413 (body: %s)", w.Code, w.Body.String())
	}
	var env edge.ErrorEnvelope
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != "batch_too_large" {
		t.Errorf("code = %q, want batch_too_large", env.Error.Code)
	}
}

// TestMethodContract pins the edge contract on both binaries' route
// trees — a shard-mode server's and a router's in front of it: every
// route names its one method (405 + Allow + the error envelope), the
// query and stream tiers answer 503 + Retry-After once draining, and
// the admin tier (metrics, ring and ownership routes) keeps answering.
func TestMethodContract(t *testing.T) {
	asShard := func(c *Config) {
		c.ShardName = "s1"
		c.ShardMembers = []string{"s1"}
	}
	member := newServer(t, asShard)
	// The router gets its own (undrained) shard to proxy to.
	backend := httptest.NewServer(newServer(t, asShard).Handler())
	defer backend.Close()
	router, err := shard.NewRouter(shard.RouterConfig{
		Members:        []shard.Member{{Name: "s1", Base: backend.URL}},
		HealthInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	do := func(h http.Handler, method, path string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, path, strings.NewReader("{}"))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		return w
	}
	envelope := func(w *httptest.ResponseRecorder) string {
		var env edge.ErrorEnvelope
		if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
			return "not an envelope: " + w.Body.String()
		}
		return env.Error.Code
	}

	for _, tree := range []struct {
		name   string
		h      http.Handler
		drain  func()
		stream []string // drained routes beyond the shared query ones
		admin  []string // GET routes that must outlive the drain
	}{
		{"service", member.Handler(), member.BeginDrain, []string{"/v1/stream/verdicts"}, []string{"/metrics", "/v1/shard/info"}},
		{"router", router.Handler(), router.BeginDrain, nil, []string{"/metrics", "/admin/ring"}},
	} {
		t.Run(tree.name, func(t *testing.T) {
			for _, tc := range []struct {
				method, path, allow string
			}{
				{http.MethodGet, "/v1/classify/batch", http.MethodPost},
				{http.MethodPost, "/v1/classify", http.MethodGet},
				{http.MethodPost, "/v1/availability", http.MethodGet},
				{http.MethodDelete, "/v1/status", http.MethodGet},
				{http.MethodPost, "/v1/sample", http.MethodGet},
				{http.MethodPost, "/metrics", http.MethodGet},
				{http.MethodPost, tree.admin[1], http.MethodGet},
			} {
				w := do(tree.h, tc.method, tc.path)
				if w.Code != http.StatusMethodNotAllowed {
					t.Errorf("%s %s = %d, want 405", tc.method, tc.path, w.Code)
					continue
				}
				if got := w.Header().Get("Allow"); got != tc.allow {
					t.Errorf("%s %s Allow = %q, want %q", tc.method, tc.path, got, tc.allow)
				}
				if code := envelope(w); code != "method_not_allowed" {
					t.Errorf("%s %s envelope = %q", tc.method, tc.path, code)
				}
			}

			url := "?url=" + queryEscape(member.order[0].URL)
			if w := do(tree.h, http.MethodGet, "/v1/classify"+url); w.Code != http.StatusOK {
				t.Fatalf("classify before the drain = %d: %s", w.Code, w.Body)
			}
			tree.drain()
			for _, path := range append([]string{"/v1/classify" + url, "/v1/sample"}, tree.stream...) {
				w := do(tree.h, http.MethodGet, path)
				if w.Code != http.StatusServiceUnavailable || envelope(w) != "draining" || w.Header().Get("Retry-After") == "" {
					t.Errorf("%s while draining = %d %q Retry-After=%q, want 503 draining", path, w.Code, envelope(w), w.Header().Get("Retry-After"))
				}
			}
			for _, path := range tree.admin {
				if w := do(tree.h, http.MethodGet, path); w.Code != http.StatusOK {
					t.Errorf("admin route %s while draining = %d, want 200", path, w.Code)
				}
			}

			var m map[string]json.RawMessage
			if err := json.Unmarshal(do(tree.h, http.MethodGet, "/metrics").Body.Bytes(), &m); err != nil {
				t.Fatalf("/metrics: %v", err)
			}
			for _, key := range []string{"requests_classify", "latency_classify"} {
				if _, ok := m[key]; !ok {
					t.Errorf("/metrics lacks %q", key)
				}
			}
		})
	}

	var m map[string]json.RawMessage
	if err := json.Unmarshal(do(router.Handler(), http.MethodGet, "/metrics").Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"generation", "degraded", "shards"} {
		if _, ok := m[key]; !ok {
			t.Errorf("router /metrics lacks published key %q", key)
		}
	}
}

// TestClassifySingleflight: N concurrent identical /v1/classify
// requests perform exactly one classification. The hook blocks the
// leader inside its computation until every request has been admitted,
// so the others must either coalesce onto the in-flight call or (if
// they arrive after it settles) hit the cache — never recompute. Run
// under -race this also exercises the flight group's synchronization.
func TestClassifySingleflight(t *testing.T) {
	_, r := fixture(t)
	s := newServer(t, nil)
	h := s.Handler()

	const n = 8
	var computes atomic.Int32
	var enterOnce sync.Once
	entered := make(chan struct{})
	release := make(chan struct{})
	s.testHookClassify = func() {
		computes.Add(1)
		enterOnce.Do(func() { close(entered) })
		<-release
	}

	u := queryEscape(r.Records[0].URL)
	type result struct {
		code  int
		cache string
		body  string
	}
	results := make(chan result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := httptest.NewRequest(http.MethodGet, "/v1/classify?url="+u, nil)
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			results <- result{w.Code, w.Header().Get("X-Cache"), w.Body.String()}
		}()
	}

	<-entered
	// Hold the leader until all n requests are admitted (followers park
	// inside the flight group holding their gate slots), then let the
	// single computation finish.
	deadline := time.Now().Add(5 * time.Second)
	for s.edge.Gate.InFlight() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests admitted", s.edge.Gate.InFlight(), n)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	close(results)

	var misses int
	bodies := make(map[string]bool)
	for res := range results {
		if res.code != http.StatusOK {
			t.Errorf("status %d, want 200 (body: %s)", res.code, res.body)
		}
		if res.cache == "miss" {
			misses++
		}
		bodies[res.body] = true
	}
	if got := computes.Load(); got != 1 {
		t.Errorf("%d classifications ran for %d identical requests, want 1", got, n)
	}
	if misses != 1 {
		t.Errorf("%d X-Cache:miss responses, want exactly 1 (the leader)", misses)
	}
	if len(bodies) != 1 {
		t.Errorf("%d distinct bodies, want 1", len(bodies))
	}
	st := s.cache.flightStats()
	if st.Leaders != 1 {
		t.Errorf("flight leaders = %d, want 1", st.Leaders)
	}
	if st.Coalesced+st.Leaders > n {
		t.Errorf("flight stats overcount: %+v for %d requests", st, n)
	}
}

// TestNegativeCacheClassify: never-archived verdicts land in the
// negative class, archived ones in the positive class, and repeats hit
// whichever holds them.
func TestNegativeCacheClassify(t *testing.T) {
	_, r := fixture(t)
	if len(r.NoCopies) == 0 || len(r.Pre200) == 0 {
		t.Skip("fixture lacks never-archived or archived links")
	}
	s := newServer(t, nil)
	h := s.Handler()

	neg := queryEscape(r.Records[r.NoCopies[0]].URL)
	getJSON(t, h, "/v1/classify?url="+neg, http.StatusOK, nil)
	if st := s.cache.classStats(cacheNegative); st.Entries != 1 {
		t.Fatalf("negative cache holds %d entries after a never-archived classify, want 1", st.Entries)
	}
	if st := s.cache.Stats(); st.Entries != 0 {
		t.Errorf("positive cache holds %d entries, want 0", st.Entries)
	}
	w := getJSON(t, h, "/v1/classify?url="+neg, http.StatusOK, nil)
	if got := w.Header().Get("X-Cache"); got != "hit" {
		t.Errorf("repeat never-archived classify X-Cache = %q, want hit", got)
	}
	if st := s.cache.classStats(cacheNegative); st.Hits != 1 {
		t.Errorf("negative cache hits = %d, want 1", st.Hits)
	}

	pos := queryEscape(r.Records[r.Pre200[0]].URL)
	getJSON(t, h, "/v1/classify?url="+pos, http.StatusOK, nil)
	if st := s.cache.Stats(); st.Entries != 1 {
		t.Errorf("positive cache holds %d entries after an archived classify, want 1", st.Entries)
	}
	if st := s.cache.classStats(cacheNegative); st.Entries != 1 {
		t.Errorf("negative cache grew to %d entries on an archived classify, want 1", st.Entries)
	}
}

// TestNegativeCacheAvailability: "no usable snapshot" answers are
// cached in the negative class, found snapshots in the positive one.
func TestNegativeCacheAvailability(t *testing.T) {
	_, r := fixture(t)
	if len(r.Pre200) == 0 {
		t.Skip("fixture lacks pre-200 links")
	}
	s := newServer(t, nil)
	h := s.Handler()

	negBefore := s.cache.classStats(cacheNegative).Entries
	getJSON(t, h, "/v1/availability?url=http%3A%2F%2Fnever.archived.example%2Fpage", http.StatusOK, nil)
	if got := s.cache.classStats(cacheNegative).Entries; got != negBefore+1 {
		t.Errorf("negative cache entries = %d after an absent lookup, want %d", got, negBefore+1)
	}

	posBefore := s.cache.Stats().Entries
	var resp availabilityResponse
	getJSON(t, h, "/v1/availability?url="+queryEscape(r.Records[r.Pre200[0]].URL), http.StatusOK, &resp)
	if !resp.Available {
		t.Fatalf("pre-200 link unavailable: %+v", resp)
	}
	if got := s.cache.Stats().Entries; got != posBefore+1 {
		t.Errorf("positive cache entries = %d after a found lookup, want %d", got, posBefore+1)
	}
}

// TestBatchPrefilterDifferential: the prefilter is an optimization,
// not a semantics change — a server with it disabled streams
// byte-identical batch responses. (The servers share the fixture
// archive, so they run sequentially around the archive-level switch.)
func TestBatchPrefilterDifferential(t *testing.T) {
	_, r := fixture(t)
	urls := make([]string, 0, r.N())
	for _, rec := range r.Records {
		urls = append(urls, rec.URL)
	}

	fixtureBundle.Archive.SetPrefilterEnabled(false)
	defer fixtureBundle.Archive.SetPrefilterEnabled(true)
	off := newServer(t, nil)
	_, offLines := postBatch(t, off.Handler(), urls, http.StatusOK)
	offStats := fixtureBundle.Archive.PrefilterStats()
	if offStats.Enabled {
		t.Fatal("SetPrefilterEnabled(false) did not disable the archive prefilter")
	}

	fixtureBundle.Archive.SetPrefilterEnabled(true)
	on := newServer(t, nil)
	_, onLines := postBatch(t, on.Handler(), urls, http.StatusOK)
	onStats := fixtureBundle.Archive.PrefilterStats()
	if !onStats.Enabled {
		t.Fatal("prefilter not enabled by default")
	}
	if onStats.Checks == 0 {
		t.Error("prefilter saw no checks during a batch sweep")
	}

	if len(offLines) != len(onLines) {
		t.Fatalf("line counts differ: %d off vs %d on", len(offLines), len(onLines))
	}
	for i := range onLines {
		if fmt.Sprintf("%+v", onLines[i]) != fmt.Sprintf("%+v", offLines[i]) {
			t.Errorf("line %d differs with prefilter on: %+v vs %+v", i, onLines[i], offLines[i])
		}
	}
}

// TestMetricsBatchSurface checks the new observability keys.
func TestMetricsBatchSurface(t *testing.T) {
	_, r := fixture(t)
	s := newServer(t, nil)
	h := s.Handler()
	postBatch(t, h, []string{r.Records[0].URL}, http.StatusOK)

	var m map[string]json.RawMessage
	getJSON(t, h, "/metrics", http.StatusOK, &m)
	for _, key := range []string{
		"requests_batch", "latency_batch", "negcache", "singleflight", "prefilter",
	} {
		if _, ok := m[key]; !ok {
			t.Errorf("/metrics missing %q", key)
		}
	}
	var fs FlightStats
	if err := json.Unmarshal(m["singleflight"], &fs); err != nil {
		t.Fatalf("singleflight stats: %v", err)
	}
	if fs.Leaders == 0 {
		t.Errorf("singleflight leaders = 0 after a batch: %s", m["singleflight"])
	}
}

// BenchmarkBatchHotLines is the handler-depth cost of a cached batch
// line: after one warming pass, whole-sample POSTs go straight into a
// recorder (no socket), so what is timed is decode, one records probe
// and one cache probe per line, the ordered emitter and the writes.
// flushes/POST counts the write(2)s a real connection would make.
func BenchmarkBatchHotLines(b *testing.B) {
	_, r := fixture(b)
	s := newServer(b, func(c *Config) { c.DisableMonitor = true })
	h := s.Handler()
	urls := make([]string, r.N())
	for i, rec := range r.Records {
		urls[i] = rec.URL
	}
	body, err := json.Marshal(map[string][]string{"urls": urls})
	if err != nil {
		b.Fatal(err)
	}
	post := func() *flushCountingRecorder {
		w := &flushCountingRecorder{ResponseRecorder: httptest.NewRecorder()}
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/classify/batch", bytes.NewReader(body)))
		if w.Code != http.StatusOK || bytes.Count(w.Body.Bytes(), []byte("\n")) != len(urls) {
			b.Fatalf("POST = %d with %d bytes, want %d lines", w.Code, w.Body.Len(), len(urls))
		}
		return w
	}
	post()

	var before, after runtime.MemStats
	flushes := 0
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flushes += post().flushes
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	lines := float64(b.N * len(urls))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/lines, "ns/line")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/lines, "allocs/line")
	b.ReportMetric(float64(flushes)/float64(b.N), "flushes/POST")
	b.ReportMetric(float64(len(urls)), "lines/POST")
}
