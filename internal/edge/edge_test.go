package edge

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// upgradeRecorder counts the Flush and ReadFrom calls that reach the
// writer underneath a statusRecorder.
type upgradeRecorder struct {
	*httptest.ResponseRecorder
	flushes, readFroms int
}

func (u *upgradeRecorder) Flush() { u.flushes++ }

func (u *upgradeRecorder) ReadFrom(r io.Reader) (int64, error) {
	u.readFroms++
	return io.Copy(u.ResponseRecorder, r)
}

type nopWriter struct{}

func (nopWriter) Header() http.Header         { return http.Header{} }
func (nopWriter) Write(p []byte) (int, error) { return len(p), nil }
func (nopWriter) WriteHeader(int)             {}

// TestStatusRecorderForwardsFlush pins the wrapper's interface
// upgrades: the metrics recorder once swallowed http.Flusher, so
// streaming handlers silently buffered; and the router's io.Copy of a
// shard body must still find the underlying io.ReaderFrom.
func TestStatusRecorderForwardsFlush(t *testing.T) {
	under := &upgradeRecorder{ResponseRecorder: httptest.NewRecorder()}
	var w http.ResponseWriter = &statusRecorder{ResponseWriter: under, status: http.StatusOK}
	f, ok := w.(http.Flusher)
	if !ok {
		t.Fatal("statusRecorder does not implement http.Flusher")
	}
	f.Flush()
	f.Flush()
	if under.flushes != 2 {
		t.Errorf("underlying writer saw %d flushes, want 2", under.flushes)
	}
	// Like a response body, the source offers no WriterTo shortcut.
	if n, err := io.Copy(w, struct{ io.Reader }{strings.NewReader("shard body")}); err != nil || n != 10 {
		t.Fatalf("io.Copy = %d, %v", n, err)
	}
	if under.readFroms != 1 || under.Body.String() != "shard body" {
		t.Errorf("io.Copy reached ReadFrom %d times, body %q", under.readFroms, under.Body)
	}

	// An underlying writer with neither upgrade must not panic or recurse.
	plain := &statusRecorder{ResponseWriter: nopWriter{}, status: http.StatusOK}
	plain.Flush()
	if n, err := io.Copy(plain, struct{ io.Reader }{strings.NewReader("abc")}); err != nil || n != 3 {
		t.Errorf("io.Copy over a plain writer = %d, %v", n, err)
	}
}

func serve(ctx context.Context, h http.Handler, method, path string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, nil).WithContext(ctx)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func envelopeCode(t *testing.T, w *httptest.ResponseRecorder) string {
	t.Helper()
	var env ErrorEnvelope
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
		t.Fatalf("not an error envelope: %q: %v", w.Body, err)
	}
	return env.Error.Code
}

// TestTiers walks one handler through the three tiers: what each adds
// on top of the method check, and what the metrics tree records.
func TestTiers(t *testing.T) {
	e, bg := New(1, time.Second), context.Background()
	ok := func(w http.ResponseWriter, r *http.Request) {
		if _, has := r.Context().Deadline(); has {
			w.Header().Set("X-Deadline", "1")
		}
		WriteJSON(w, map[string]bool{"ok": true})
	}
	mux := http.NewServeMux()
	mux.Handle("/query", e.Handle("q", http.MethodGet, Query, ok))
	mux.Handle("/stream", e.Handle("s", http.MethodGet, Stream, ok))
	mux.Handle("/admin", e.Handle("a", http.MethodPost, Admin, ok))
	mux.Handle("/metrics", e.Handle("metrics", http.MethodGet, Admin, e.ServeMetrics))

	if w := serve(bg, mux, http.MethodGet, "/query"); w.Code != 200 || w.Header().Get("X-Deadline") != "1" {
		t.Errorf("query tier: %d, deadline header %q", w.Code, w.Header().Get("X-Deadline"))
	}
	if w := serve(bg, mux, http.MethodGet, "/stream"); w.Code != 200 || w.Header().Get("X-Deadline") != "" {
		t.Errorf("stream tier: %d, deadline header %q (want none)", w.Code, w.Header().Get("X-Deadline"))
	}
	w := serve(bg, mux, http.MethodGet, "/admin")
	if w.Code != http.StatusMethodNotAllowed || w.Header().Get("Allow") != http.MethodPost || envelopeCode(t, w) != "method_not_allowed" {
		t.Errorf("GET on a POST route: %d Allow=%q %s", w.Code, w.Header().Get("Allow"), w.Body)
	}

	// A full gate sheds a query at its deadline; stream and admin never
	// wait on it.
	if err := e.Gate.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	short, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	w = serve(short, mux, http.MethodGet, "/query")
	if w.Code != http.StatusServiceUnavailable || envelopeCode(t, w) != "overloaded" || w.Header().Get("Retry-After") != "1" {
		t.Errorf("query on a full gate: %d %s Retry-After=%q", w.Code, w.Body, w.Header().Get("Retry-After"))
	}
	if e.Gate.Rejected() != 1 {
		t.Errorf("gate rejected = %d, want 1", e.Gate.Rejected())
	}
	if w := serve(bg, mux, http.MethodGet, "/stream"); w.Code != 200 {
		t.Errorf("stream on a full gate: %d", w.Code)
	}
	e.Gate.Release()

	e.BeginDrain()
	for _, path := range []string{"/query", "/stream"} {
		w := serve(bg, mux, http.MethodGet, path)
		if w.Code != http.StatusServiceUnavailable || envelopeCode(t, w) != "draining" || w.Header().Get("Retry-After") != "1" {
			t.Errorf("%s while draining: %d %s", path, w.Code, w.Body)
		}
	}
	if w := serve(bg, mux, http.MethodPost, "/admin"); w.Code != 200 {
		t.Errorf("admin while draining: %d", w.Code)
	}

	var m map[string]json.RawMessage
	w = serve(bg, mux, http.MethodGet, "/metrics")
	if err := json.Unmarshal(w.Body.Bytes(), &m); err != nil {
		t.Fatalf("/metrics: %v: %s", err, w.Body)
	}
	var q map[string]int64
	if err := json.Unmarshal(m["requests_q"], &q); err != nil {
		t.Fatal(err)
	}
	if q["2xx"] != 1 || q["5xx"] != 2 {
		t.Errorf("requests_q = %v, want one 2xx and two 5xx", q)
	}
	if _, ok := m["latency_a"]; !ok {
		t.Error("/metrics lacks latency_a")
	}
	if e.Count5xx() != 3 {
		t.Errorf("Count5xx = %d, want 3", e.Count5xx())
	}
}

// TestErrorParts pins the failure → envelope mapping both binaries use.
func TestErrorParts(t *testing.T) {
	for _, tc := range []struct {
		err    error
		status int
		code   string
	}{
		{&Error{Status: 404, Code: "unknown_link", Msg: "x"}, 404, "unknown_link"},
		{context.DeadlineExceeded, http.StatusGatewayTimeout, "deadline"},
		{context.Canceled, StatusClientClosedRequest, "client_closed_request"},
		{io.ErrUnexpectedEOF, http.StatusInternalServerError, "internal"},
	} {
		if status, code, _ := ErrorParts(tc.err); status != tc.status || code != tc.code {
			t.Errorf("ErrorParts(%v) = %d %q, want %d %q", tc.err, status, code, tc.status, tc.code)
		}
	}
}

// TestHistogramSubMillisecondQuantiles: 50 µs observations read a p50
// inside their own bucket, (40 µs, 80 µs]. With buckets starting at
// 1 ms the same traffic read p50 ≈ 0.5 ms, a tenfold error.
func TestHistogramSubMillisecondQuantiles(t *testing.T) {
	h := newHistogram()
	for i := 0; i < 1000; i++ {
		h.observe(50 * time.Microsecond)
	}
	for _, q := range []float64{0.5, 0.99} {
		if got := h.quantile(q); got <= 0.04 || got > 0.08 {
			t.Errorf("p%g of 50 µs observations = %.4f ms, want in (0.04, 0.08]", 100*q, got)
		}
	}
	var v struct {
		P50     float64          `json:"p50_ms"`
		Buckets map[string]int64 `json:"buckets"`
	}
	if err := json.Unmarshal([]byte(h.String()), &v); err != nil {
		t.Fatalf("histogram JSON: %v", err)
	}
	if v.Buckets["le_0.08ms"] != 1000 {
		t.Errorf("le_0.08ms = %d, want 1000 (buckets %v)", v.Buckets["le_0.08ms"], v.Buckets)
	}
}
