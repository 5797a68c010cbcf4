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
	"permadead/internal/fetch"
	"permadead/internal/simclock"
	"permadead/internal/urlutil"
)

// errorEnvelope is the one error shape every endpoint speaks:
//
//	{"error":{"code":"overloaded","message":"..."}}
type errorEnvelope struct {
	Error errorBody `json:"error"`
}

type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorEnvelope{ //nolint:errcheck // headers are out
		Error: errorBody{Code: code, Message: fmt.Sprintf(format, args...)},
	})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	json.NewEncoder(w).Encode(v) //nolint:errcheck
}

// statusRecorder captures the response status for metrics.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.ResponseWriter.WriteHeader(code)
}

// Flush forwards http.Flusher to the wrapped writer, so streaming
// handlers (the NDJSON batch endpoint) can push each line to the
// client as it is produced instead of buffering the whole response.
// Wrapping a ResponseWriter loses its interface upgrades by default;
// Flusher is the only one this API needs — nothing here hijacks
// connections (no websockets) or uses HTTP/2 push, and io.ReaderFrom
// is merely a copy optimization the envelope writers never exercise.
func (sr *statusRecorder) Flush() {
	if f, ok := sr.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/v1/availability", s.v1("availability", http.MethodGet, s.handleAvailability))
	mux.Handle("/v1/status", s.v1("status", http.MethodGet, s.handleStatus))
	mux.Handle("/v1/classify", s.v1("classify", http.MethodGet, s.handleClassify))
	mux.Handle("/v1/classify/batch", s.v1("batch", http.MethodPost, s.handleClassifyBatch))
	mux.Handle("/v1/sample", s.v1("sample", http.MethodGet, s.handleSample))
	mux.Handle("/v1/watch", s.v1("watch", http.MethodPost, s.handleWatch))
	mux.Handle("/v1/watched", s.v1("watched", http.MethodGet, s.handleWatched))
	mux.Handle("/v1/stream/verdicts", s.sse("stream", s.handleStreamVerdicts))
	mux.Handle("/v1/sim/tick", s.v1("sim", http.MethodPost, s.handleSimTick))
	mux.Handle("/v1/sim/edit", s.v1("sim", http.MethodPost, s.handleSimEdit))
	mux.Handle("/v1/sim/article", s.v1("sim", http.MethodGet, s.handleSimArticle))
	mux.Handle("/metrics", s.met.handler())
	mux.HandleFunc("/healthz", s.handleHealthz)
	if s.ring.Load() != nil {
		// Fleet admin plane, deliberately outside the v1 wrapper: a
		// router's ring push must land even when the data plane is
		// saturated (admission gate full) or draining.
		mux.HandleFunc("/v1/shard/info", s.handleShardInfo)
		mux.HandleFunc("/v1/shard/ownership", s.handleShardOwnership)
	}
	if s.fed != nil {
		// Federation admin plane, also outside the v1 wrapper: flipping
		// a member down (or inspecting a degraded federation) must land
		// even when the data plane is saturated or draining.
		mux.HandleFunc("/v1/federation/info", s.handleFederationInfo)
		mux.HandleFunc("/v1/federation/member", s.handleFederationMember)
	}
	return mux
}

// v1 wraps an endpoint handler with the serving-layer contract, in
// order: per-route method check (405s carry an Allow header), drain
// check (503 while shutting down), the per-request deadline, the
// admission-control semaphore (queue, then shed at the deadline), and
// metrics (status class + latency, measured to include admission
// wait — that is the latency a client sees).
func (s *Server) v1(name, method string, h func(w http.ResponseWriter, r *http.Request)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		defer func() { s.met.observe(name, rec.status, time.Since(start)) }()

		if r.Method != method {
			rec.Header().Set("Allow", method)
			writeError(rec, http.StatusMethodNotAllowed, "method_not_allowed", "use %s", method)
			return
		}
		if s.draining.Load() {
			rec.Header().Set("Retry-After", "1")
			writeError(rec, http.StatusServiceUnavailable, "draining", "server is shutting down")
			return
		}

		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()

		if err := s.gate.acquire(ctx); err != nil {
			rec.Header().Set("Retry-After", "1")
			writeError(rec, http.StatusServiceUnavailable, "overloaded",
				"no capacity within the request deadline: %v", err)
			return
		}
		defer s.gate.release()

		h(rec, r.WithContext(ctx))
	})
}

// tryServeCached serves the cached body for key if present — probing
// the positive cache first, then the negative class — returning
// whether it did. An empty key never hits.
func (s *Server) tryServeCached(w http.ResponseWriter, key string) bool {
	if key == "" {
		return false
	}
	body, ok := s.cache.Get(key)
	if !ok {
		body, ok = s.negCache.Get(key)
	}
	if !ok {
		return false
	}
	w.Header().Set("X-Cache", "hit")
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Write(body) //nolint:errcheck
	return true
}

// cacheClass says where (whether) a computed response body may be
// memoized.
type cacheClass int

const (
	// cachePositive: a durable answer with archive substance; the main
	// response cache.
	cachePositive cacheClass = iota
	// cacheNegative: a durable "nothing there" answer (no snapshot,
	// never archived); the negative cache's own capacity class, so the
	// unbounded population of negative lookups cannot evict positive
	// results (§5.1: the majority of the paper's dead links were never
	// archived at all — the negative case is the common one).
	cacheNegative
	// cacheSkip: the answer reflects a transient condition (a 5xx, a
	// 429, a timeout) rather than frozen-index state. Serving it once
	// is honest; memoizing it would let one bad moment poison every
	// later request until eviction.
	cacheSkip
)

// cachedJSON consults the response caches before computing; on a miss
// it renders v() to JSON, stores it according to class (nil = always
// positive), and serves it. Only successful computations are cached.
// An empty key bypasses the cache entirely.
func (s *Server) cachedJSON(w http.ResponseWriter, key string, class func(v any) cacheClass, v func() (any, error)) {
	if s.tryServeCached(w, key) {
		return
	}
	val, err := v()
	if err != nil {
		s.writeComputeError(w, err)
		return
	}
	body, err := json.Marshal(val)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encode", "%v", err)
		return
	}
	body = append(body, '\n')
	if key != "" {
		cl := cachePositive
		if class != nil {
			cl = class(val)
		}
		switch cl {
		case cachePositive:
			s.cache.Put(key, body)
		case cacheNegative:
			s.negCache.Put(key, body)
		}
	}
	w.Header().Set("X-Cache", "miss")
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Write(body) //nolint:errcheck
}

// statusClientClosedRequest is nginx's non-standard 499: the client
// went away before we could answer. It keeps client-side aborts in the
// 4xx class so they don't pollute server-error (5xx) accounting.
const statusClientClosedRequest = 499

// classifyError is a per-link failure that already knows its envelope:
// the single-link endpoint maps it to an HTTP status, the batch
// endpoint renders it as an NDJSON error line.
type classifyError struct {
	status int
	code   string
	msg    string
}

func (e *classifyError) Error() string { return e.msg }

// errorParts maps any handler-level failure to (status, code, message)
// for the envelope: deadline exhaustion becomes 504, a client
// disconnect becomes 499 (a 4xx — the server did nothing wrong),
// classifyErrors carry their own mapping, everything else 500.
func errorParts(err error) (int, string, string) {
	var ce *classifyError
	switch {
	case errors.As(err, &ce):
		return ce.status, ce.code, ce.msg
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "deadline", fmt.Sprintf("request deadline exceeded: %v", err)
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest, "client_closed_request", fmt.Sprintf("client closed request: %v", err)
	}
	return http.StatusInternalServerError, "internal", err.Error()
}

func (s *Server) writeComputeError(w http.ResponseWriter, err error) {
	status, code, msg := errorParts(err)
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeError(w, status, code, "%s", msg)
}

// --- /v1/availability ---

// availabilitySnapshot is the served view of an archived capture.
type availabilitySnapshot struct {
	URL        string `json:"url"`
	Timestamp  string `json:"timestamp"`
	Status     int    `json:"status"`
	WaybackURL string `json:"wayback_url"`
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
		writeError(w, http.StatusBadRequest, "missing_url", "missing url parameter")
		return
	}
	want := s.cfg.Study.StudyTime
	if ts := q.Get("ts"); ts != "" {
		d, err := simclock.ParseTimestamp(ts)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad_ts", "malformed ts %q: %v", ts, err)
			return
		}
		want = d
	}
	var asOf simclock.Day
	if v := q.Get("asof"); v != "" {
		d, err := simclock.ParseTimestamp(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad_asof", "malformed asof %q: %v", v, err)
			return
		}
		asOf = d
	}
	timeout, err := parseTimeout(q.Get("timeout"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_timeout", "%v", err)
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
		writeError(w, http.StatusBadRequest, "bad_accept", "accept must be 'usable' or 'any', got %q", acceptName)
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
	// "No usable snapshot" by frozen-index absence is the negative
	// class: cheap to recompute, endless to enumerate. A §4.1 lookup
	// timeout is NOT: the scan never finished, so "timed_out with no
	// snapshot" is a fact about this lookup's budget, not about the
	// archive — memoizing it would turn one slow moment into a durable
	// (and wrong) no-snapshot answer.
	class := func(v any) cacheClass {
		resp := v.(availabilityResponse)
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
	s.cachedJSON(w, key, class, func() (any, error) {
		resp := availabilityResponse{
			URL:    rawURL,
			Policy: availabilityPolicy{TimeoutMS: int64(timeout / time.Millisecond), Accept: acceptName},
		}
		aq := archive.AvailabilityQuery{
			URL: rawURL, Want: want, AsOf: asOf, Accept: accept, Timeout: timeout,
		}
		if s.federated() {
			return s.federatedAvailability(r.Context(), resp, aq)
		}
		resp.LatencyMS = int64(s.study.Arch.LookupLatency(rawURL) / time.Millisecond)
		snap, ok, err := s.study.Arch.Query(aq)
		switch {
		case errors.Is(err, archive.ErrAvailabilityTimeout):
			resp.TimedOut = true
		case err != nil:
			return nil, err
		case ok:
			resp.Available = true
			resp.Snapshot = &availabilitySnapshot{
				URL:        snap.URL,
				Timestamp:  snap.Day.Timestamp(),
				Status:     snap.InitialStatus,
				WaybackURL: snap.WaybackURL(),
			}
		}
		return resp, nil
	})
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
		writeError(w, http.StatusBadRequest, "missing_url", "missing url parameter")
		return
	}
	retries, err := parseKnob(q.Get("retries"), 1, 1, 10)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_retries", "%v", err)
		return
	}
	confirm, err := parseKnob(q.Get("confirm"), 1, 1, 10)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_confirm", "%v", err)
		return
	}
	spacing, err := parseKnob(q.Get("spacing"), 30, 0, 3650)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_spacing", "%v", err)
		return
	}

	// rawURL rides in the key because the body echoes it (see
	// handleAvailability); non-default policies get their own entries.
	key := "s\x00" + urlutil.SchemeAgnosticKey(rawURL) + "\x00" + rawURL
	if retries > 1 || confirm > 1 {
		key += "\x00r" + strconv.Itoa(retries) + "\x00c" + strconv.Itoa(confirm) +
			"\x00d" + strconv.Itoa(spacing)
	}
	// A live check that ran into a 5xx/429/timeout is a snapshot of a
	// bad moment (a fault window, an overloaded origin) — serve it,
	// never memoize it.
	class := func(v any) cacheClass {
		if v.(statusResponse).Live.Transient() {
			return cacheSkip
		}
		return cachePositive
	}
	s.cachedJSON(w, key, class, func() (any, error) {
		resp := statusResponse{URL: rawURL}
		var live core.LiveStatus
		var err error
		if retries > 1 || confirm > 1 {
			live, err = s.study.CheckLiveWith(r.Context(), s.retrier(retries, confirm, spacing), rawURL)
			resp.Policy = &statusPolicy{Retries: retries}
			if confirm > 1 {
				resp.Policy.ConfirmChecks = confirm
				resp.Policy.SpacingDays = spacing
			}
		} else {
			live, err = s.study.CheckLive(r.Context(), rawURL)
		}
		if err != nil {
			return nil, err
		}
		resp.Live = live
		return resp, nil
	})
}

// retrier builds a per-request retry policy over the study's client,
// feeding the server-wide retry counters.
func (s *Server) retrier(retries, confirm, spacing int) *fetch.Retrier {
	pol := fetch.DefaultRetryPolicy()
	pol.MaxAttempts = retries
	if confirm > 1 {
		pol.ConfirmChecks = confirm
		pol.ConfirmSpacingDays = spacing
	}
	pol.JitterSeed = s.cfg.Study.Seed
	rt := fetch.NewRetrier(s.study.Client, pol)
	rt.Day = int(s.cfg.Study.StudyTime)
	rt.Sleep = fetch.NopSleep
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
// cannot diverge. The layers, cheapest first:
//
//  1. response caches — positive for links with archive history,
//     negative (shorter capacity class) for never-archived verdicts,
//     which §5.1 says is the common case among the paper's dead links;
//  2. the singleflight group — concurrent identical requests, across
//     both endpoints, coalesce onto one computation;
//  3. the classify worker pool + the full ClassifyLink pipeline.
//
// src reports which layer answered: "hit", "miss" (this call led the
// computation), or "coalesced" (another call's computation answered).
func (s *Server) classifyBody(ctx context.Context, rawURL string) (body []byte, src string, err error) {
	if rawURL == "" {
		return nil, "", &classifyError{http.StatusBadRequest, "missing_url", "missing url parameter"}
	}
	rec, ok := s.records[urlutil.SchemeAgnosticKey(rawURL)]
	if !ok {
		return nil, "", &classifyError{http.StatusNotFound, "unknown_link",
			fmt.Sprintf("%s is not in the served sample of %d permanently dead links", rawURL, len(s.order))}
	}

	// Probe the caches before the flight group and pool: a hit costs
	// nothing, so it must not queue behind (or be shed from) the small
	// heavy-work pool. The body is rendered from rec, so the canonical
	// key is safe to share across raw spellings.
	key := "c\x00" + urlutil.SchemeAgnosticKey(rec.URL)
	if body, ok := s.cache.Get(key); ok {
		return body, "hit", nil
	}
	if body, ok := s.negCache.Get(key); ok {
		return body, "hit", nil
	}

	body, shared, err := s.flight.do(ctx, key, func() ([]byte, error) {
		// The leader computes under the server's own budget, detached
		// from its request context: followers share this result, so it
		// must not die with the leader's client.
		cctx, cancel := context.WithTimeout(context.Background(), s.cfg.RequestTimeout)
		defer cancel()
		if err := s.classifyPool.acquire(cctx); err != nil {
			return nil, &classifyError{http.StatusServiceUnavailable, "overloaded",
				fmt.Sprintf("classification pool full within the request deadline: %v", err)}
		}
		defer s.classifyPool.release()
		if s.testHookClassify != nil {
			s.testHookClassify()
		}
		c, err := s.study.ClassifyLink(cctx, rec)
		if err != nil {
			return nil, err
		}
		b, err := json.Marshal(c)
		if err != nil {
			return nil, &classifyError{http.StatusInternalServerError, "encode", err.Error()}
		}
		b = append(b, '\n')
		// A verdict measured through a transient live failure (a 5xx,
		// a 429, a timeout during a fault window) is served to this
		// flight but never memoized: the archive half is durable, the
		// live half is not, and the next request should re-measure.
		switch {
		case c.Live.Transient():
			// skip both caches
		case c.Archive.NeverArchived:
			s.negCache.Put(key, b)
		default:
			s.cache.Put(key, b)
		}
		return b, nil
	})
	if err != nil {
		return nil, "", err
	}
	if shared {
		return body, "coalesced", nil
	}
	return body, "miss", nil
}

// handleClassify serves the full study verdict for one sampled link.
// The heavy work runs inside the classify worker pool on top of the
// global gate: classification fans out into a live fetch, soft-404
// probes, and archive scans, so its concurrency is bounded tighter
// than cheap lookups.
func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	body, src, err := s.classifyBody(r.Context(), r.URL.Query().Get("url"))
	if err != nil {
		s.writeComputeError(w, err)
		return
	}
	w.Header().Set("X-Cache", src)
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Write(body) //nolint:errcheck
}

// --- /v1/classify/batch ---

// maxBatchBodyBytes bounds the request body a batch may post; at the
// 10k-link default cap and generous URL lengths this is far above any
// legitimate request.
const maxBatchBodyBytes = 32 << 20

// batchErrorLine is the NDJSON shape of a per-link failure: the same
// error envelope as every endpoint, plus the URL so an out-of-band
// reader can still pair lines with inputs.
type batchErrorLine struct {
	URL   string    `json:"url"`
	Error errorBody `json:"error"`
}

// handleClassifyBatch classifies up to MaxBatchLinks URLs in one POST,
// streaming verdicts back as NDJSON — one JSON object per line, in
// input order, flushed as produced — so a client reads verdict i while
// verdict i+k is still computing. Per-link failures become error lines
// ({"url":...,"error":{...}}) instead of aborting the stream; each
// line goes through the same cache → singleflight → pool path as
// /v1/classify, so a batch and concurrent single-link requests for the
// same URL do the classify work once.
//
// Body: {"urls": ["http://...", ...]}. The whole stream runs under the
// request deadline; size batches so they fit, or raise -request-timeout.
func (s *Server) handleClassifyBatch(w http.ResponseWriter, r *http.Request) {
	var req struct {
		URLs []string `json:"urls"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBatchBodyBytes)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_body", "decoding request body: %v", err)
		return
	}
	if len(req.URLs) == 0 {
		writeError(w, http.StatusBadRequest, "empty_batch", `body must carry a non-empty "urls" array`)
		return
	}
	if len(req.URLs) > s.cfg.MaxBatchLinks {
		writeError(w, http.StatusRequestEntityTooLarge, "batch_too_large",
			"%d urls exceeds the %d-link batch bound; split the request", len(req.URLs), s.cfg.MaxBatchLinks)
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
	w.Header().Set("X-Batch-Links", strconv.Itoa(len(req.URLs)))
	flusher, _ := w.(http.Flusher) // statusRecorder forwards the upgrade

	//nolint:errcheck // a mid-stream failure (client gone, write error)
	// cannot change the already-sent status; the stream just ends.
	core.StreamOrdered(r.Context(), len(req.URLs), s.cfg.BatchWorkers,
		func(i int) []byte {
			body, _, err := s.classifyBody(r.Context(), req.URLs[i])
			if err != nil {
				_, code, msg := errorParts(err)
				line, _ := json.Marshal(batchErrorLine{URL: req.URLs[i], Error: errorBody{Code: code, Message: msg}})
				return append(line, '\n')
			}
			return body
		},
		func(i int, line []byte) error {
			if _, err := w.Write(line); err != nil {
				return err
			}
			if flusher != nil {
				flusher.Flush()
			}
			return nil
		})
}

// --- /v1/sample ---

type sampleResponse struct {
	Total  int      `json:"total"`
	Offset int      `json:"offset"`
	Count  int      `json:"count"`
	URLs   []string `json:"urls"`
	// Articles, present with ?articles=1, carries each URL's citing
	// article title, index-aligned with URLs — what a stream driver
	// needs to build /v1/watch requests.
	Articles []string `json:"articles,omitempty"`
}

// handleSample lists the served link population in sample order, so
// load generators and clients can discover classifiable URLs.
func (s *Server) handleSample(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	n := 100
	if v := q.Get("n"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed < 1 {
			writeError(w, http.StatusBadRequest, "bad_n", "malformed n %q", v)
			return
		}
		n = parsed
	}
	offset := 0
	if v := q.Get("offset"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed < 0 {
			writeError(w, http.StatusBadRequest, "bad_offset", "malformed offset %q", v)
			return
		}
		offset = parsed
	}
	withArticles := q.Get("articles") == "1" || q.Get("articles") == "true"

	// view=owned (shard mode) restricts the listing to links whose
	// registrable domain this fleet member owns on the current ring —
	// the slice a router concatenates across shards. Standalone servers
	// own everything, so the filter passes all records through there.
	owned := func(int) bool { return true }
	if q.Get("view") == "owned" {
		if ring := s.ring.Load(); ring != nil {
			owned = func(i int) bool { return ring.Owner(s.recordDomains[i]) == s.shardName }
		}
	}

	resp := sampleResponse{Offset: offset}
	seen := 0
	for i := 0; i < len(s.order); i++ {
		if !owned(i) {
			continue
		}
		resp.Total++
		if seen < offset {
			seen++
			continue
		}
		if len(resp.URLs) >= n {
			continue // keep counting Total past the window
		}
		resp.URLs = append(resp.URLs, s.order[i].URL)
		if withArticles {
			resp.Articles = append(resp.Articles, s.order[i].Article)
		}
	}
	resp.Count = len(resp.URLs)
	writeJSON(w, resp)
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
		InFlight:   s.gate.inFlight(),
	}
	if s.draining.Load() {
		resp.Status = "draining"
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(resp) //nolint:errcheck
		return
	}
	writeJSON(w, resp)
}
