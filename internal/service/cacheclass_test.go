package service

import (
	"context"
	"net/http"
	"net/url"
	"testing"
	"time"

	"permadead/internal/core"
	"permadead/internal/edge"
)

// newFlakyServer builds a monitor-less server over the flaky stream
// fixture (every site has a fault window covering the study day), so
// live measurements routinely come back 503/429/timeout — the raw
// material for the transient-memoization regression tests.
func newFlakyServer(t *testing.T) *Server {
	t.Helper()
	b := streamFixture(t)
	cfg := DefaultConfig()
	cfg.Study.SampleSize = b.Params.SampleSize
	cfg.Study.CrawlArticles = 0
	cfg.DisableMonitor = true
	s, err := New(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s
}

// TestClassifyTransientNotMemoized is the regression test for the
// transient-cache-poisoning bug: a /v1/classify verdict whose live half
// went through a 5xx/429/timeout used to be stored in the response (or
// negative) cache like any durable answer, so one fault-window
// measurement was replayed to every later caller until eviction. The
// fix serves such a verdict but never memoizes it: the request after a
// transient verdict must recompute (X-Cache anything but "hit"), while
// a verdict measured on clear air still caches as before.
func TestClassifyTransientNotMemoized(t *testing.T) {
	s := newFlakyServer(t)
	h := s.Handler()

	var sr edge.SampleResponse
	getJSON(t, h, "/v1/sample?n=120", http.StatusOK, &sr)
	if len(sr.URLs) == 0 {
		t.Fatal("empty sample")
	}

	var transientURL, durableURL string
	for _, u := range sr.URLs {
		var c core.Classification
		getJSON(t, h, "/v1/classify?url="+url.QueryEscape(u), http.StatusOK, &c)
		if c.Live.Transient() {
			if transientURL == "" {
				transientURL = u
			}
		} else if durableURL == "" {
			durableURL = u
		}
		if transientURL != "" && durableURL != "" {
			break
		}
	}
	if transientURL == "" {
		t.Fatal("no sampled URL produced a transient live verdict; fixture fault windows changed?")
	}
	if durableURL == "" {
		t.Fatal("every sampled URL produced a transient live verdict; fixture fault windows changed?")
	}

	// The transient verdict must not have been stored: the next request
	// for the same URL recomputes rather than serving from cache.
	var c core.Classification
	w := getJSON(t, h, "/v1/classify?url="+url.QueryEscape(transientURL), http.StatusOK, &c)
	if got := w.Header().Get("X-Cache"); got == "hit" {
		t.Errorf("classify after transient verdict X-Cache = hit; transient result was memoized")
	}

	// Control: a verdict measured without a transient failure still
	// caches — the fix must not have disabled memoization wholesale.
	w = getJSON(t, h, "/v1/classify?url="+url.QueryEscape(durableURL), http.StatusOK, &c)
	if got := w.Header().Get("X-Cache"); got != "hit" {
		t.Errorf("repeat durable classify X-Cache = %q, want hit", got)
	}
}

// TestStatusTransientNotMemoized covers the same rule on /v1/status,
// which previously cached every response as positive.
func TestStatusTransientNotMemoized(t *testing.T) {
	s := newFlakyServer(t)
	h := s.Handler()

	var sr edge.SampleResponse
	getJSON(t, h, "/v1/sample?n=120", http.StatusOK, &sr)

	var transientURL, durableURL string
	for _, u := range sr.URLs {
		var resp statusResponse
		getJSON(t, h, "/v1/status?url="+url.QueryEscape(u), http.StatusOK, &resp)
		if resp.Live.Transient() {
			if transientURL == "" {
				transientURL = u
			}
		} else if durableURL == "" {
			durableURL = u
		}
		if transientURL != "" && durableURL != "" {
			break
		}
	}
	if transientURL == "" {
		t.Fatal("no sampled URL produced a transient status; fixture fault windows changed?")
	}
	if durableURL == "" {
		t.Fatal("every sampled URL produced a transient status; fixture fault windows changed?")
	}

	var resp statusResponse
	w := getJSON(t, h, "/v1/status?url="+url.QueryEscape(transientURL), http.StatusOK, &resp)
	if got := w.Header().Get("X-Cache"); got == "hit" {
		t.Errorf("status after transient measurement X-Cache = hit; transient result was memoized")
	}
	w = getJSON(t, h, "/v1/status?url="+url.QueryEscape(durableURL), http.StatusOK, &resp)
	if got := w.Header().Get("X-Cache"); got != "hit" {
		t.Errorf("repeat durable status X-Cache = %q, want hit", got)
	}
}

// TestAvailabilityTimeoutNotMemoized covers /v1/availability's §4.1
// lookup-timeout path: "timed_out with no snapshot" is a fact about
// this lookup's budget, not about the archive, so it must not land in
// the negative cache (where it would masquerade as a durable
// never-archived answer), while genuine frozen-index negatives still
// do.
func TestAvailabilityTimeoutNotMemoized(t *testing.T) {
	s := newFlakyServer(t)
	h := s.Handler()

	var sr edge.SampleResponse
	getJSON(t, h, "/v1/sample?n=120", http.StatusOK, &sr)

	// Hunt for a URL whose simulated lookup latency blows a 1ms budget.
	var timedOutURL string
	for _, u := range sr.URLs {
		var resp availabilityResponse
		getJSON(t, h, "/v1/availability?timeout=1&url="+url.QueryEscape(u), http.StatusOK, &resp)
		if resp.TimedOut {
			timedOutURL = u
			break
		}
	}
	if timedOutURL == "" {
		t.Skip("no sampled URL exceeded a 1ms availability budget")
	}

	var resp availabilityResponse
	w := getJSON(t, h, "/v1/availability?timeout=1&url="+url.QueryEscape(timedOutURL), http.StatusOK, &resp)
	if !resp.TimedOut {
		t.Fatalf("second lookup did not time out; latency model changed?")
	}
	if got := w.Header().Get("X-Cache"); got == "hit" {
		t.Errorf("availability after timeout X-Cache = hit; timed-out lookup was memoized")
	}

	// The same URL under an unbounded budget yields a durable answer
	// that caches normally (positive or negative class, either way a
	// second request is a hit).
	getJSON(t, h, "/v1/availability?url="+url.QueryEscape(timedOutURL), http.StatusOK, &resp)
	w = getJSON(t, h, "/v1/availability?url="+url.QueryEscape(timedOutURL), http.StatusOK, &resp)
	if got := w.Header().Get("X-Cache"); got != "hit" {
		t.Errorf("repeat unbounded availability X-Cache = %q, want hit", got)
	}
}
