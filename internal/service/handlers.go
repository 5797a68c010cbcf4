package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"permadead/internal/archive"
	"permadead/internal/core"
	"permadead/internal/edge"
	"permadead/internal/fetch"
	"permadead/internal/simclock"
	"permadead/internal/urlutil"
)

// routes builds the route tree. Every route but /healthz is registered
// through the edge wrapper (internal/edge), in one of its three tiers:
// queries are drained, deadlined, gated and counted; the SSE stream is
// drained and counted but holds no gate slot; the admin plane — metrics,
// a router's ring push, a federation member flip — lands even when the
// data plane is saturated or draining.
func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	handle := func(path, name, method string, tier edge.Tier, h http.HandlerFunc) {
		mux.Handle(path, s.edge.Handle(name, method, tier, h))
	}
	handle("/v1/availability", "availability", http.MethodGet, edge.Query, s.handleAvailability)
	handle("/v1/status", "status", http.MethodGet, edge.Query, s.handleStatus)
	handle("/v1/classify", "classify", http.MethodGet, edge.Query, s.handleClassify)
	handle("/v1/classify/batch", "batch", http.MethodPost, edge.Query, s.handleClassifyBatch)
	handle("/v1/sample", "sample", http.MethodGet, edge.Query, s.handleSample)
	handle("/v1/watch", "watch", http.MethodPost, edge.Query, s.monitored(s.handleWatch))
	handle("/v1/watched", "watched", http.MethodGet, edge.Query, s.monitored(s.handleWatched))
	handle("/v1/stream/verdicts", "stream", http.MethodGet, edge.Stream, s.monitored(s.handleStreamVerdicts))
	handle("/v1/sim/tick", "sim", http.MethodPost, edge.Query, s.monitored(s.handleSimTick))
	handle("/v1/sim/edit", "sim", http.MethodPost, edge.Query, s.monitored(s.handleSimEdit))
	handle("/v1/sim/article", "sim", http.MethodGet, edge.Query, s.monitored(s.handleSimArticle))
	handle("/metrics", "metrics", http.MethodGet, edge.Admin, s.edge.ServeMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	if s.ring.Load() != nil {
		handle("/v1/shard/info", "shard", http.MethodGet, edge.Admin, s.handleShardInfo)
		handle("/v1/shard/ownership", "shard", http.MethodPost, edge.Admin, s.handleShardOwnership)
	}
	if s.fed != nil {
		handle("/v1/federation/info", "federation", http.MethodGet, edge.Admin, s.handleFederationInfo)
		handle("/v1/federation/member", "federation", http.MethodPost, edge.Admin, s.handleFederationMember)
	}
	return mux
}

// serveBody writes a do answer: the rendered JSON body, with src as
// the X-Cache value naming the layer that produced it, or err's
// envelope.
func serveBody(w http.ResponseWriter, body []byte, src string, err error) {
	if err != nil {
		edge.WriteFailure(w, err)
		return
	}
	w.Header().Set("X-Cache", src)
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Write(body) //nolint:errcheck
}

// do answers key through the response cache (Cache.do): on a miss,
// compute's value is rendered as a JSON line and filed under the class
// compute reports. The leader computes under the server's own budget,
// detached from its request context: waiters share its result, so it
// must not die with the leader's client.
func (s *Server) do(ctx context.Context, key string, compute func(context.Context) (any, cacheClass, error)) ([]byte, string, error) {
	return s.cache.do(ctx, key, func() ([]byte, cacheClass, error) {
		cctx, cancel := context.WithTimeout(context.Background(), s.cfg.RequestTimeout)
		defer cancel()
		v, class, err := compute(cctx)
		if err != nil {
			return nil, cacheSkip, err
		}
		b, err := json.Marshal(v)
		if err != nil {
			return nil, cacheSkip, &edge.Error{Status: http.StatusInternalServerError, Code: "encode", Msg: err.Error()}
		}
		return append(b, '\n'), class, nil
	})
}

// --- /v1/availability ---

// availabilitySnapshot is the served view of an archived capture.
type availabilitySnapshot struct {
	URL        string `json:"url"`
	Timestamp  string `json:"timestamp"`
	Status     int    `json:"status"`
	WaybackURL string `json:"wayback_url"`
}

func snapshotView(snap archive.Snapshot) *availabilitySnapshot {
	return &availabilitySnapshot{
		URL:        snap.URL,
		Timestamp:  snap.Day.Timestamp(),
		Status:     snap.InitialStatus,
		WaybackURL: snap.WaybackURL(),
	}
}

type availabilityResponse struct {
	URL       string                `json:"url"`
	Policy    availabilityPolicy    `json:"policy"`
	Available bool                  `json:"available"`
	TimedOut  bool                  `json:"timed_out"`
	LatencyMS int64                 `json:"lookup_latency_ms"`
	Snapshot  *availabilitySnapshot `json:"snapshot,omitempty"`
	// Federation appears only on hedged multi-archive lookups
	// (Config.Federation with >1 member); single-archive responses stay
	// byte-identical to a federation-unaware build.
	Federation *availabilityFederation `json:"federation,omitempty"`
}

type availabilityPolicy struct {
	TimeoutMS int64  `json:"timeout_ms"`
	Accept    string `json:"accept"`
}

// handleAvailability is the Wayback-style closest-usable-snapshot
// lookup with the paper's two failure knobs exposed per request:
//
//	timeout  — IABot's lookup budget (§4.1). A slow lookup answers
//	           "timed_out": true with no snapshot, indistinguishable
//	           from absence, exactly the misclassification the paper
//	           documents. Accepts Go durations ("2s") or bare
//	           milliseconds. Default: unbounded.
//	accept   — "usable" (initial-200 only, IABot's §4.2 policy) or
//	           "any" (3xx copies included). Default: usable.
//	ts       — desired capture timestamp (YYYYMMDD[HHMMSS]); the
//	           closest capture wins. Default: the study day.
//	asof     — hide captures after this day (a bot scanning in 2018
//	           cannot see 2020 copies).
func (s *Server) handleAvailability(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	rawURL := q.Get("url")
	if rawURL == "" {
		edge.WriteError(w, http.StatusBadRequest, "missing_url", "missing url parameter")
		return
	}
	want := s.cfg.Study.StudyTime
	if ts := q.Get("ts"); ts != "" {
		d, err := simclock.ParseTimestamp(ts)
		if err != nil {
			edge.WriteError(w, http.StatusBadRequest, "bad_ts", "malformed ts %q: %v", ts, err)
			return
		}
		want = d
	}
	var asOf simclock.Day
	if v := q.Get("asof"); v != "" {
		d, err := simclock.ParseTimestamp(v)
		if err != nil {
			edge.WriteError(w, http.StatusBadRequest, "bad_asof", "malformed asof %q: %v", v, err)
			return
		}
		asOf = d
	}
	timeout, err := parseTimeout(q.Get("timeout"))
	if err != nil {
		edge.WriteError(w, http.StatusBadRequest, "bad_timeout", "%v", err)
		return
	}
	acceptName := q.Get("accept")
	if acceptName == "" {
		acceptName = "usable"
	}
	var accept func(archive.Snapshot) bool
	switch acceptName {
	case "usable":
		accept = archive.AcceptUsable
	case "any":
		accept = archive.AcceptAny
	default:
		edge.WriteError(w, http.StatusBadRequest, "bad_accept", "accept must be 'usable' or 'any', got %q", acceptName)
		return
	}

	// The raw URL is part of the key (not just the canonical form)
	// because the cached body echoes it back: two spellings of one
	// canonical URL must not share a rendered response.
	key := strings.Join([]string{
		"a", urlutil.SchemeAgnosticKey(rawURL), rawURL, strconv.Itoa(int(want)),
		strconv.Itoa(int(asOf)), timeout.String(), acceptName,
	}, "\x00")
	if s.federated() {
		// The member population is part of the answer: an admin
		// down-flip bumps the epoch, orphaning everything cached under
		// the previous population.
		key += "\x00fed" + strconv.FormatInt(s.fedEpoch.Load(), 10)
	}
	body, src, err := s.do(r.Context(), key, func(ctx context.Context) (any, cacheClass, error) {
		resp := availabilityResponse{
			URL:    rawURL,
			Policy: availabilityPolicy{TimeoutMS: int64(timeout / time.Millisecond), Accept: acceptName},
		}
		aq := archive.AvailabilityQuery{
			URL: rawURL, Want: want, AsOf: asOf, Accept: accept, Timeout: timeout,
		}
		if s.federated() {
			return s.federatedAvailability(ctx, resp, aq)
		}
		resp.LatencyMS = int64(s.study.Arch.LookupLatency(rawURL) / time.Millisecond)
		snap, ok, err := s.study.Arch.Query(aq)
		switch {
		case errors.Is(err, archive.ErrAvailabilityTimeout):
			resp.TimedOut = true
		case err != nil:
			return nil, cacheSkip, err
		case ok:
			resp.Available = true
			resp.Snapshot = snapshotView(snap)
		}
		return resp, availabilityClass(resp), nil
	})
	serveBody(w, body, src, err)
}

// availabilityClass files an availability answer. "No usable snapshot"
// by frozen-index absence is the negative class: cheap to recompute,
// endless to enumerate. A §4.1 lookup timeout is NOT: the scan never
// finished, so "timed_out with no snapshot" is a fact about this
// lookup's budget, not about the archive — memoizing it would turn one
// slow moment into a durable (and wrong) no-snapshot answer.
func availabilityClass(resp availabilityResponse) cacheClass {
	switch {
	case resp.TimedOut:
		return cacheSkip
	case resp.Federation != nil && len(resp.Federation.Degraded) > 0:
		// A degraded federated answer reflects which members were
		// down or over budget this moment — transient, like a
		// timeout, not a fact about the frozen indexes.
		return cacheSkip
	case !resp.Available:
		return cacheNegative
	}
	return cachePositive
}

func parseTimeout(v string) (time.Duration, error) {
	if v == "" {
		return 0, nil
	}
	if d, err := time.ParseDuration(v); err == nil {
		if d < 0 {
			return 0, fmt.Errorf("negative timeout %q", v)
		}
		return d, nil
	}
	ms, err := strconv.Atoi(v)
	if err != nil || ms < 0 {
		return 0, fmt.Errorf("malformed timeout %q (want a duration like '2s' or milliseconds)", v)
	}
	return time.Duration(ms) * time.Millisecond, nil
}

// --- /v1/status ---

type statusResponse struct {
	URL    string          `json:"url"`
	Policy *statusPolicy   `json:"policy,omitempty"`
	Live   core.LiveStatus `json:"live"`
}

// statusPolicy echoes non-default retry knobs back to the client (the
// default single-GET policy omits it, keeping those responses
// byte-identical to a knob-unaware build).
type statusPolicy struct {
	Retries       int `json:"retries"`
	ConfirmChecks int `json:"confirm_checks,omitempty"`
	SpacingDays   int `json:"spacing_days,omitempty"`
}

// handleStatus answers the §3 question for any URL: a live-web check
// against the simulated web plus the soft-404 probe for 200s. By
// default it issues the paper's single GET; three query knobs select a
// production-checker policy instead (fetch.Retrier semantics):
//
//	retries  — max attempts per check, transient failures only (1–10)
//	confirm  — consecutive failed checks required before the link
//	           counts dead (1–10)
//	spacing  — simulated days between confirmation checks (default 30)
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	rawURL := q.Get("url")
	if rawURL == "" {
		edge.WriteError(w, http.StatusBadRequest, "missing_url", "missing url parameter")
		return
	}
	retries, err := parseKnob(q.Get("retries"), 1, 1, 10)
	if err != nil {
		edge.WriteError(w, http.StatusBadRequest, "bad_retries", "%v", err)
		return
	}
	confirm, err := parseKnob(q.Get("confirm"), 1, 1, 10)
	if err != nil {
		edge.WriteError(w, http.StatusBadRequest, "bad_confirm", "%v", err)
		return
	}
	spacing, err := parseKnob(q.Get("spacing"), 30, 0, 3650)
	if err != nil {
		edge.WriteError(w, http.StatusBadRequest, "bad_spacing", "%v", err)
		return
	}

	// rawURL rides in the key because the body echoes it (see
	// handleAvailability); non-default policies get their own entries.
	key := "s\x00" + urlutil.SchemeAgnosticKey(rawURL) + "\x00" + rawURL
	if retries > 1 || confirm > 1 {
		key += "\x00r" + strconv.Itoa(retries) + "\x00c" + strconv.Itoa(confirm) +
			"\x00d" + strconv.Itoa(spacing)
	}
	body, src, err := s.do(r.Context(), key, func(ctx context.Context) (any, cacheClass, error) {
		resp := statusResponse{URL: rawURL}
		var live core.LiveStatus
		var err error
		if retries > 1 || confirm > 1 {
			live, err = s.study.CheckLiveWith(ctx, s.retrier(retries, confirm, spacing), rawURL)
			resp.Policy = &statusPolicy{Retries: retries}
			if confirm > 1 {
				resp.Policy.ConfirmChecks = confirm
				resp.Policy.SpacingDays = spacing
			}
		} else {
			live, err = s.study.CheckLive(ctx, rawURL)
		}
		if err != nil {
			return nil, cacheSkip, err
		}
		resp.Live = live
		// A live check that ran into a 5xx/429/timeout is a snapshot
		// of a bad moment (a fault window, an overloaded origin) —
		// serve it, never memoize it.
		if live.Transient() {
			return resp, cacheSkip, nil
		}
		return resp, cachePositive, nil
	})
	serveBody(w, body, src, err)
}

// retrier builds a per-request retry policy over the study's client,
// feeding the server-wide retry counters.
func (s *Server) retrier(retries, confirm, spacing int) *fetch.Retrier {
	rt := s.study.Retrier(retries, confirm, spacing)
	rt.Stats = s.retryStats
	return rt
}

// parseKnob parses an integer query knob with a default and bounds.
func parseKnob(v string, def, lo, hi int) (int, error) {
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < lo || n > hi {
		return 0, fmt.Errorf("malformed value %q (want an integer in [%d, %d])", v, lo, hi)
	}
	return n, nil
}

// --- /v1/classify ---

// classifyBody produces the rendered classification body for one raw
// URL, shared by the single-link and batch endpoints so the two paths
// cannot diverge. It goes through the response cache (Cache.do), so
// concurrent identical requests, across both endpoints, coalesce onto
// one computation; that computation runs in the classify worker pool.
// A never-archived verdict is filed in the negative class, which §5.1
// says is the common case among the paper's dead links.
//
// src reports which layer answered: "hit", "miss" (this call led the
// computation), or "coalesced" (another call's computation answered).
func (s *Server) classifyBody(ctx context.Context, rawURL string) (body []byte, src string, err error) {
	if rawURL == "" {
		return nil, "", &edge.Error{Status: http.StatusBadRequest, Code: "missing_url", Msg: "missing url parameter"}
	}
	served, ok := s.records[urlutil.SchemeAgnosticKey(rawURL)]
	if !ok {
		return nil, "", &edge.Error{Status: http.StatusNotFound, Code: "unknown_link",
			Msg: fmt.Sprintf("%s is not in the served sample of %d permanently dead links", rawURL, len(s.order))}
	}

	// The cache answers before the pool: a hit costs nothing, so it
	// must not queue behind (or be shed from) the small heavy-work
	// pool. The body is rendered from served.rec, so the canonical key
	// is safe to share across raw spellings.
	return s.do(ctx, served.classifyKey, func(cctx context.Context) (any, cacheClass, error) {
		if err := s.classifyPool.Acquire(cctx); err != nil {
			return nil, cacheSkip, &edge.Error{Status: http.StatusServiceUnavailable, Code: "overloaded",
				Msg: fmt.Sprintf("classification pool full within the request deadline: %v", err)}
		}
		defer s.classifyPool.Release()
		if s.testHookClassify != nil {
			s.testHookClassify()
		}
		c, err := s.study.ClassifyLink(cctx, served.rec)
		if err != nil {
			return nil, cacheSkip, err
		}
		// A verdict measured through a transient live failure (a 5xx,
		// a 429, a timeout during a fault window) is served to this
		// flight but never memoized: the archive half is durable, the
		// live half is not, and the next request should re-measure.
		class := cachePositive
		switch {
		case c.Live.Transient():
			class = cacheSkip
		case c.Archive.NeverArchived:
			class = cacheNegative
		}
		return c, class, nil
	})
}

// handleClassify serves the full study verdict for one sampled link.
// The heavy work runs inside the classify worker pool on top of the
// global gate: classification fans out into a live fetch, soft-404
// probes, and archive scans, so its concurrency is bounded tighter
// than cheap lookups.
func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	body, src, err := s.classifyBody(r.Context(), r.URL.Query().Get("url"))
	serveBody(w, body, src, err)
}

// --- /v1/classify/batch ---

// handleClassifyBatch classifies up to MaxBatchLinks URLs in one POST,
// streaming verdicts back as NDJSON — one JSON object per line, in
// input order, flushed whenever the stream is about to wait for a
// verdict — so a client reads verdict i while verdict i+k is still
// computing, and verdicts ready together share a write. Per-link
// failures become error lines ({"url":...,"error":{...}}) instead of
// aborting the stream; each line goes through the same cache → pool
// path as /v1/classify, so a batch and concurrent single-link requests
// for the same URL do the classify work once.
//
// Body: {"urls": ["http://...", ...]}. The whole stream runs under the
// request deadline; size batches so they fit, or raise -request-timeout.
func (s *Server) handleClassifyBatch(w http.ResponseWriter, r *http.Request) {
	urls, ok := edge.DecodeBatch(w, r, s.cfg.MaxBatchLinks)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
	w.Header().Set("X-Batch-Links", strconv.Itoa(len(urls)))

	emit, flush := edge.LineWriter(w)
	//nolint:errcheck // a mid-stream failure (client gone, write error)
	// cannot change the already-sent status; the stream just ends.
	core.StreamOrderedIdle(r.Context(), len(urls), s.batchWorkers,
		func(i int) []byte {
			body, _, err := s.classifyBody(r.Context(), urls[i])
			if err != nil {
				_, code, msg := edge.ErrorParts(err)
				return edge.ErrLine(urls[i], code, msg)
			}
			return body
		},
		emit, flush)
}

// --- /v1/sample ---

// handleSample lists the served link population in sample order, so
// load generators and clients can discover classifiable URLs.
func (s *Server) handleSample(w http.ResponseWriter, r *http.Request) {
	win, ok := edge.ParseSampleWindow(w, r)
	if !ok {
		return
	}

	// view=owned (shard mode) restricts the listing to links whose
	// registrable domain this fleet member owns on the current ring —
	// the slice a router concatenates across shards. Standalone servers
	// own everything, so the filter passes all records through there.
	owned := func(int) bool { return true }
	if r.URL.Query().Get("view") == "owned" {
		if ring := s.ring.Load(); ring != nil {
			owned = func(i int) bool { return ring.Owner(s.recordDomains[i]) == s.shardName }
		}
	}

	resp := edge.SampleResponse{Offset: win.Offset}
	seen := 0
	for i := 0; i < len(s.order); i++ {
		if !owned(i) {
			continue
		}
		resp.Total++
		if seen < win.Offset {
			seen++
			continue
		}
		if len(resp.URLs) >= win.N {
			continue // keep counting Total past the window
		}
		resp.URLs = append(resp.URLs, s.order[i].URL)
		if win.Articles {
			resp.Articles = append(resp.Articles, s.order[i].Article)
		}
	}
	resp.Count = len(resp.URLs)
	edge.WriteJSON(w, resp)
}

// --- /healthz ---

type healthResponse struct {
	Status     string  `json:"status"`
	UptimeS    float64 `json:"uptime_s"`
	SampleSize int     `json:"sample_size"`
	InFlight   int     `json:"in_flight"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := healthResponse{
		Status:     "ok",
		UptimeS:    time.Since(s.started).Seconds(),
		SampleSize: len(s.order),
		InFlight:   s.edge.Gate.InFlight(),
	}
	if s.edge.Draining() {
		resp.Status = "draining"
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(resp) //nolint:errcheck
		return
	}
	edge.WriteJSON(w, resp)
}
