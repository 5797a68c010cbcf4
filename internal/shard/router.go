package shard

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"permadead/internal/edge"
	"permadead/internal/urlutil"
)

// Member names one shard and where to reach it.
type Member struct {
	Name string
	Base string // e.g. http://127.0.0.1:9001
}

// RouterConfig tunes the fleet router. Zero values select defaults.
type RouterConfig struct {
	// Members is the fleet, in ring order. Names must match the
	// -shard-name each permadeadd was started with.
	Members []Member
	// ShardTimeout is the per-shard deadline on every proxied or
	// scattered leg — the bound that turns a hung shard into a flagged
	// partial result instead of a hung client. A batch leg is read only
	// as fast as the merge moves, so there it bounds each wait of the
	// merge on that shard instead. Default 15s.
	ShardTimeout time.Duration
	// HealthInterval is the /healthz polling cadence. Proxy failures
	// mark a member down immediately; polling brings it back. Default 1s.
	HealthInterval time.Duration
}

// retryAfter is the Retry-After advertisement on degraded (shard-down)
// responses, in seconds.
const retryAfter = "2"

// member is the router's live view of one shard.
type member struct {
	name    string
	base    string
	healthy atomic.Bool
	// proxied / failed count forwarded requests and transport-level
	// failures (for /metrics).
	proxied atomic.Int64
	failed  atomic.Int64
}

// Router is a stateless fan-out proxy in front of a permadeadd fleet.
// It owns the authoritative ring, proxies single-link verdicts to the
// owning shard, scatter-gathers population queries, splits batch
// requests by owner, and orchestrates rebalances. It holds no link
// state of its own: killing and restarting the router loses nothing.
type Router struct {
	cfg     RouterConfig
	ring    atomic.Pointer[Ring]
	members map[string]*member
	order   []string
	client  *http.Client
	edge    *edge.Edge // request wrapper, drain flag, metrics

	rebalanceMu sync.Mutex // serializes handoffs
	stop        chan struct{}
	stopOnce    sync.Once

	degraded atomic.Int64 // responses flagged partial or shard_down
}

// NewRouter builds a router over the fleet. Members start healthy;
// the first health sweep (and any proxy failure) corrects that.
// Call Close to stop the health loop.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if cfg.ShardTimeout <= 0 {
		cfg.ShardTimeout = 15 * time.Second
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = time.Second
	}
	if len(cfg.Members) == 0 {
		return nil, fmt.Errorf("shard: router needs at least one member")
	}
	names := make([]string, len(cfg.Members))
	for i, m := range cfg.Members {
		names[i] = m.Name
	}
	ring, err := New(names, DefaultVNodes)
	if err != nil {
		return nil, err
	}
	r := &Router{
		cfg:     cfg,
		members: make(map[string]*member, len(cfg.Members)),
		order:   names,
		client:  &http.Client{}, // per-leg deadlines ride on contexts
		edge:    edge.New(0, 0), // no query-tier routes: the shards gate and deadline
		stop:    make(chan struct{}),
	}
	r.ring.Store(ring)
	r.edge.Publish("generation", func() any { return r.ring.Load().Generation() })
	r.edge.Publish("degraded", func() any { return r.degraded.Load() })
	r.edge.Publish("shards", func() any {
		shards := make(map[string]any, len(r.order))
		for _, name := range r.order {
			m := r.members[name]
			shards[name] = map[string]any{
				"healthy": m.healthy.Load(),
				"proxied": m.proxied.Load(),
				"failed":  m.failed.Load(),
			}
		}
		return shards
	})
	for _, m := range cfg.Members {
		base := m.Base
		if !strings.Contains(base, "://") {
			base = "http://" + base
		}
		mem := &member{name: m.Name, base: strings.TrimSuffix(base, "/")}
		mem.healthy.Store(true)
		r.members[m.Name] = mem
	}
	go r.healthLoop()
	return r, nil
}

// Close stops the health loop.
func (r *Router) Close() { r.stopOnce.Do(func() { close(r.stop) }) }

// Ring returns the current ring.
func (r *Router) Ring() *Ring { return r.ring.Load() }

func (r *Router) healthLoop() {
	t := time.NewTicker(r.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			for _, m := range r.members {
				m.healthy.Store(r.probe(m))
			}
		}
	}
}

// probe asks one shard's /healthz; only a 200 counts (a draining shard
// answers 503 and must stop receiving traffic).
func (r *Router) probe(m *member) bool {
	resp, cancel, err := r.leg(context.Background(), r.cfg.HealthInterval, m, "/healthz", nil)
	if err != nil {
		return false
	}
	defer cancel()
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// leg sends member m one request under ctx, with a deadline of timeout
// when it is positive: a GET of path, or — with a payload — a POST of
// it as JSON. On success the caller closes the response body, then
// calls cancel.
func (r *Router) leg(ctx context.Context, timeout time.Duration, m *member, path string, payload []byte) (*http.Response, context.CancelFunc, error) {
	cancel := context.CancelFunc(func() {})
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, timeout)
	}
	method, body := http.MethodGet, io.Reader(nil)
	if payload != nil {
		method, body = http.MethodPost, bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, m.base+path, body)
	if err == nil {
		if payload != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		var resp *http.Response
		if resp, err = r.client.Do(req); err == nil {
			return resp, cancel, nil
		}
	}
	cancel()
	return nil, nil, err
}

// Handler returns the router's route tree, built from the same edge
// wrapper as the shard server's. The surface mirrors the shard API where
// proxying is transparent; fleet-only routes live under /admin. Proxied
// routes sit in the stream tier — refused while draining and counted,
// but neither gated nor deadlined here: each leg carries ShardTimeout
// and the shard it lands on does the admitting.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(path, name, method string, tier edge.Tier, h http.HandlerFunc) {
		mux.Handle(path, r.edge.Handle(name, method, tier, h))
	}
	handle("/v1/availability", "availability", http.MethodGet, edge.Stream, r.handleSingle)
	handle("/v1/status", "status", http.MethodGet, edge.Stream, r.handleSingle)
	handle("/v1/classify", "classify", http.MethodGet, edge.Stream, r.handleSingle)
	handle("/v1/classify/batch", "batch", http.MethodPost, edge.Stream, r.handleBatch)
	handle("/v1/sample", "sample", http.MethodGet, edge.Stream, r.handleSample)
	mux.HandleFunc("/healthz", r.handleHealthz)
	handle("/metrics", "metrics", http.MethodGet, edge.Admin, r.edge.ServeMetrics)
	handle("/admin/ring", "admin", http.MethodGet, edge.Admin, r.handleRing)
	handle("/admin/rebalance", "admin", http.MethodPost, edge.Admin, r.handleRebalance)
	return mux
}

// BeginDrain makes the router refuse new proxied requests with 503
// draining while in-flight ones finish; /admin and /metrics still land.
func (r *Router) BeginDrain() { r.edge.BeginDrain() }

// degrade answers 503 for a hash range whose owner cannot serve it.
func (r *Router) degrade(w http.ResponseWriter, code, format string, args ...any) {
	r.degraded.Add(1)
	w.Header().Set("Retry-After", retryAfter)
	edge.WriteError(w, http.StatusServiceUnavailable, code, format, args...)
}

// legFailed accounts for a shard leg whose client.Do returned an error
// and reports whether the shard is to blame. inbound is the request's
// own context (not the leg's): when it is done the caller hung up or
// ran out of time, which says nothing about the shard — only a leg
// deadline or transport error on a live inbound request marks the
// member down, until the health loop's next sweep.
func (m *member) legFailed(inbound context.Context) bool {
	if inbound.Err() != nil {
		return false
	}
	m.healthy.Store(false)
	m.failed.Add(1)
	return true
}

// handleSingle proxies /v1/availability, /v1/status, and /v1/classify
// to the shard owning the queried URL's registrable domain. The shard's
// response — status, body, cache headers — passes through verbatim, so
// a fleet answer is byte-identical to the owning shard's; the router
// adds only X-Fleet-Shard. A down or unreachable owner answers 503
// with Retry-After instead of hanging; a caller that hangs up first is
// a 499 and leaves the owner's health alone.
func (r *Router) handleSingle(w http.ResponseWriter, req *http.Request) {
	rawURL := req.URL.Query().Get("url")
	if rawURL == "" {
		edge.WriteError(w, http.StatusBadRequest, "missing_url", "missing url parameter")
		return
	}
	domain := urlutil.Domain(rawURL)
	m := r.members[r.ring.Load().Owner(domain)]
	if !m.healthy.Load() {
		r.degrade(w, "shard_down", "shard %s (owner of %s) is down; retry shortly", m.name, domain)
		return
	}

	resp, cancel, err := r.leg(req.Context(), r.cfg.ShardTimeout, m, req.URL.Path+"?"+req.URL.RawQuery, nil)
	if err != nil {
		if !m.legFailed(req.Context()) {
			edge.WriteFailure(w, req.Context().Err())
			return
		}
		r.degrade(w, "shard_unreachable", "shard %s did not answer within %v: %v", m.name, r.cfg.ShardTimeout, err)
		return
	}
	defer cancel()
	defer resp.Body.Close()
	m.proxied.Add(1)
	for _, h := range []string{"Content-Type", "X-Cache", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set("X-Fleet-Shard", m.name)
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body) //nolint:errcheck // headers are out; the stream just ends
}

// handleBatch splits one bulk-classify request by owning shard, posts
// every shard its sub-batch at once, and merges the answers back into
// input order. A shard streams its sub-batch's lines in its own input
// order, so global line i is simply the next line of owner(i)'s stream:
// the merge walks the input and reads each line from its owner, holding
// no line but the one it writes. A healthy leg the merge is not reading
// waits in its own read buffer and, past that, in TCP flow control, so
// the router holds one buffer per shard however many lines there are.
// The merge flushes whenever its next read would wait (edge.LineWriter's
// contract), so a line is never held while a later one is computed.
// ShardTimeout bounds each wait on a leg, not the leg's life: a leg
// waits on the merge while a stalled neighbour or a slow client holds
// it, and that is no fault of its shard.
// Links owned by a down shard become {"error":{"code":"shard_down"}}
// lines (the same per-line degradation contract as unknown links), the
// response is flagged with X-Fleet-Partial and Retry-After, and a shard
// that fails or dies mid-stream fails only its own remaining lines.
func (r *Router) handleBatch(w http.ResponseWriter, req *http.Request) {
	urls, ok := edge.DecodeBatch(w, req)
	if !ok {
		return
	}

	// Partition by owner under one ring snapshot (a rebalance
	// mid-request must not split a batch across rings).
	ring := r.ring.Load()
	parts := make(map[string]*subBatch)
	owners := make([]*subBatch, len(urls))
	for i, u := range urls {
		name := ring.OwnerOfURL(u)
		p := parts[name]
		if p == nil {
			p = &subBatch{m: r.members[name], up: make(chan struct{})}
			parts[name] = p
		}
		p.urls = append(p.urls, u)
		owners[i] = p
	}

	var down []string
	ctx, cancel := context.WithCancel(req.Context())
	defer cancel()
	for _, p := range parts {
		if !p.m.healthy.Load() {
			down = append(down, p.m.name)
			p.code, p.msg = "shard_down", fmt.Sprintf("shard %s is down; retry shortly", p.m.name)
			close(p.up)
			continue
		}
		legCtx, cancelLeg := context.WithCancelCause(ctx)
		p.cancel = cancelLeg
		go r.open(ctx, legCtx, p)
	}

	w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
	w.Header().Set("X-Batch-Links", strconv.Itoa(len(urls)))
	if len(down) > 0 {
		sort.Strings(down)
		w.Header().Set("X-Fleet-Partial", strings.Join(down, ","))
		w.Header().Set("Retry-After", retryAfter)
		r.degraded.Add(1)
	}

	emit, flush := edge.LineWriter(w)
	unflushed := false
	for i, p := range owners {
		var idle *time.Timer
		if !p.ready() {
			if unflushed {
				flush()
				unflushed = false
			}
			idle = time.AfterFunc(r.cfg.ShardTimeout, func() { p.cancel(context.DeadlineExceeded) })
		}
		line := p.next(urls[i])
		if idle != nil {
			idle.Stop()
		}
		// Once the client is gone nothing more is written, and the
		// legs it abandoned are not the shards' failures.
		if ctx.Err() != nil || emit(i, line) != nil {
			break
		}
		unflushed = true
	}
	if unflushed {
		flush()
	}
	cancel()
	for _, p := range parts {
		p.close()
	}
}

// subBatch is one owner's share of a batch: its links in input order
// and, once its leg has answered, the shard's stream of their lines.
type subBatch struct {
	m    *member
	urls []string
	// up is closed once the leg has answered (at once for a down
	// member); the fields below are the merge's after that.
	up chan struct{}
	// cancel ends the leg, with context.DeadlineExceeded when the merge
	// has waited ShardTimeout on it.
	cancel context.CancelCauseFunc
	resp   *http.Response
	br     *bufio.Reader
	read   int // lines taken from br
	// code and msg, once set, make the error line of every remaining
	// link: the shard is down, its leg failed, or its stream ended early.
	code, msg string
}

// open posts p's links to its shard under legCtx, a child of the
// batch's context ctx, and records the answer. A failing leg marks the
// member down only while ctx is live: once it is done the client hung
// up, which says nothing about the shard.
func (r *Router) open(ctx, legCtx context.Context, p *subBatch) {
	defer close(p.up)
	payload, _ := json.Marshal(map[string][]string{"urls": p.urls}) //nolint:errcheck
	resp, _, err := r.leg(legCtx, 0, p.m, "/v1/classify/batch", payload)
	switch {
	case err != nil:
		p.m.legFailed(ctx)
		p.code, p.msg = "shard_unreachable", fmt.Sprintf("shard %s: %v", p.m.name, err)
	case resp.StatusCode != http.StatusOK:
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		p.code, p.msg = "shard_error", fmt.Sprintf("shard %s answered %d: %s", p.m.name, resp.StatusCode, bytes.TrimSpace(raw))
	default:
		p.m.proxied.Add(1)
		p.resp = resp
		p.br = bufio.NewReaderSize(resp.Body, maxLine)
	}
}

// maxLine bounds one shard line as the router reads it; a longer line
// ends the shard's stream like a truncation. A verdict line is well
// under a kilobyte.
const maxLine = 64 << 10

// ready reports whether p's next line can be had without waiting for
// its shard.
func (p *subBatch) ready() bool {
	select {
	case <-p.up:
	default:
		return false
	}
	if p.code != "" {
		return true
	}
	buf, _ := p.br.Peek(p.br.Buffered())
	return bytes.IndexByte(buf, '\n') >= 0
}

// next returns p's next line, the one for url: the shard's own line
// while its stream lasts — valid until p is read again — and an error
// line after.
func (p *subBatch) next(url string) []byte {
	<-p.up
	if p.code == "" {
		line, err := p.br.ReadSlice('\n')
		if err == nil {
			p.read++
			return line
		}
		p.code, p.msg = "shard_unreachable", fmt.Sprintf("shard %s stream truncated at line %d of %d", p.m.name, p.read, len(p.urls))
		if err != io.EOF {
			p.msg += ": " + err.Error()
		}
	}
	return edge.ErrLine(url, p.code, p.msg)
}

// close waits for p's leg to answer and releases it. The batch's
// context is cancelled by now, and with it every leg's.
func (p *subBatch) close() {
	<-p.up
	if p.resp != nil {
		p.resp.Body.Close()
	}
}

// routerSample is the fleet's merged /v1/sample shape: the shard
// response plus the degraded-mode fields. Partial and MissingShards
// appear only when a shard could not contribute, so healthy-fleet
// responses stay shaped like a single shard's.
type routerSample struct {
	edge.SampleResponse
	// ByShard reports each contributing shard's owned-population size.
	ByShard map[string]int `json:"by_shard"`
	// Partial is set when at least one shard's slice is missing; the
	// response then also carries Retry-After.
	Partial       bool     `json:"partial,omitempty"`
	MissingShards []string `json:"missing_shards,omitempty"`
}

// handleSample scatter-gathers the sampled population: every shard
// contributes its owned slice (view=owned), each leg under its own
// deadline, and the router interleaves the slices round-robin before
// applying offset/n. A missing shard — down, unreachable, or past its
// deadline — yields a flagged partial result with Retry-After instead
// of an error or a hang.
func (r *Router) handleSample(w http.ResponseWriter, req *http.Request) {
	win, ok := edge.ParseSampleWindow(w, req)
	if !ok {
		return
	}

	// slices[i] is member i's owned slice of the population, or why it
	// is missing.
	slices := make([]struct {
		edge.SampleResponse
		err error
	}, len(r.order))
	var wg sync.WaitGroup
	for i, name := range r.order {
		m := r.members[name]
		if !m.healthy.Load() {
			slices[i].err = fmt.Errorf("down")
			continue
		}
		wg.Add(1)
		go func(i int, m *member) {
			defer wg.Done()
			// Each shard is asked for enough of its slice to cover the
			// merged window: win.Offset+win.N is an upper bound on any one
			// shard's contribution.
			target := fmt.Sprintf("/v1/sample?view=owned&n=%d", win.Offset+win.N)
			if win.Articles {
				target += "&articles=1"
			}
			resp, cancel, err := r.leg(req.Context(), r.cfg.ShardTimeout, m, target, nil)
			if err != nil {
				m.legFailed(req.Context())
				slices[i].err = err
				return
			}
			defer cancel()
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				slices[i].err = fmt.Errorf("shard answered %d", resp.StatusCode)
				return
			}
			m.proxied.Add(1)
			slices[i].err = json.NewDecoder(resp.Body).Decode(&slices[i].SampleResponse)
		}(i, m)
	}
	wg.Wait()
	if err := req.Context().Err(); err != nil {
		edge.WriteFailure(w, err) // the caller is gone: no partial result to flag
		return
	}

	out := routerSample{ByShard: make(map[string]int, len(r.order))}
	out.Offset = win.Offset
	for i, name := range r.order {
		sl := slices[i]
		if sl.err != nil {
			out.Partial = true
			out.MissingShards = append(out.MissingShards, name)
			continue
		}
		out.Total += sl.Total
		out.ByShard[name] = sl.Total
	}
	// Interleave the slices round-robin rather than concatenating them:
	// any prefix of the merged listing then spreads across the whole
	// fleet, so a load generator sampling the first K URLs drives every
	// shard instead of hammering whichever member sorts first — the
	// sampling property the fleet workload's scaling measurement (and
	// any client wanting a representative cross-section) relies on.
	skip := win.Offset
	for j := 0; len(out.URLs) < win.N; j++ {
		advanced := false
		for i := range r.order {
			sl := slices[i]
			if sl.err != nil || j >= len(sl.URLs) {
				continue
			}
			advanced = true
			if skip > 0 {
				skip--
				continue
			}
			if len(out.URLs) >= win.N {
				break
			}
			out.URLs = append(out.URLs, sl.URLs[j])
			if win.Articles && j < len(sl.Articles) {
				out.Articles = append(out.Articles, sl.Articles[j])
			}
		}
		if !advanced {
			break
		}
	}
	out.Count = len(out.URLs)
	if out.Partial {
		w.Header().Set("Retry-After", retryAfter)
		r.degraded.Add(1)
	}
	edge.WriteJSON(w, out)
}

// handleHealthz reports fleet health: 200 with per-shard status. The
// router itself is healthy as long as it runs; "degraded" in the body
// is the load-balancer signal that some range of the keyspace is dark.
func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	shards := make(map[string]any, len(r.order))
	status := "ok"
	for _, name := range r.order {
		m := r.members[name]
		h := m.healthy.Load()
		if !h {
			status = "degraded"
		}
		shards[name] = map[string]any{"base": m.base, "healthy": h}
	}
	edge.WriteJSON(w, map[string]any{
		"status":     status,
		"generation": r.ring.Load().Generation(),
		"shards":     shards,
	})
}

func (r *Router) handleRing(w http.ResponseWriter, req *http.Request) {
	edge.WriteJSON(w, r.ring.Load().State())
}

// handleRebalance moves the hash range owning a domain to another
// member. See Rebalance for the protocol.
func (r *Router) handleRebalance(w http.ResponseWriter, req *http.Request) {
	var body struct {
		Domain string `json:"domain"`
		To     string `json:"to"`
	}
	if !edge.DecodeBody(w, req, &body) {
		return
	}
	if body.Domain == "" || body.To == "" {
		edge.WriteError(w, http.StatusBadRequest, "bad_rebalance", `body must carry "domain" and "to"`)
		return
	}
	res, err := r.Rebalance(req.Context(), body.Domain, body.To)
	if err != nil {
		edge.WriteError(w, http.StatusConflict, "rebalance_failed", "%v", err)
		return
	}
	edge.WriteJSON(w, res)
}

// RebalanceResult reports one completed handoff.
type RebalanceResult struct {
	Domain     string `json:"domain"`
	Point      uint64 `json:"point"`
	From       string `json:"from"`
	To         string `json:"to"`
	Generation int64  `json:"generation"`
}

// Rebalance moves the hash range covering domain to member `to`:
//
//  1. the new owner learns the updated ring first (its owned sample
//     view widens before any traffic arrives);
//  2. the router cuts over — new requests for the range route to the
//     new owner, and requests already on the old owner finish there
//     correctly, because every shard can classify the full universe;
//  3. the updated ring propagates to the remaining members, best
//     effort, so their owned views converge.
//
// Handoffs serialize on an internal mutex; the target must be healthy.
func (r *Router) Rebalance(ctx context.Context, domain, to string) (*RebalanceResult, error) {
	r.rebalanceMu.Lock()
	defer r.rebalanceMu.Unlock()

	target, ok := r.members[to]
	if !ok {
		return nil, fmt.Errorf("unknown member %q", to)
	}
	if !target.healthy.Load() {
		return nil, fmt.Errorf("target shard %s is down", to)
	}
	next, from, point, err := r.ring.Load().MoveDomain(domain, to)
	if err != nil {
		return nil, err
	}
	res := &RebalanceResult{Domain: domain, Point: point, From: from, To: to, Generation: next.Generation()}
	if from == to {
		return res, nil // already owned; nothing to move
	}

	// 1. New owner first: it must accept the range before traffic cuts
	// over to it.
	if err := r.pushOwnership(ctx, target, next.State()); err != nil {
		return nil, fmt.Errorf("new owner %s rejected the ring: %w", to, err)
	}

	// 2. Cut over.
	r.ring.Store(next)

	// 3. Propagate to the rest of the fleet (best effort — a shard that
	// misses the update serves a stale owned view until the next push,
	// which only affects /v1/sample composition, not verdicts).
	for _, name := range r.order {
		if name == to {
			continue
		}
		if m := r.members[name]; m.healthy.Load() {
			r.pushOwnership(ctx, m, next.State()) //nolint:errcheck
		}
	}
	return res, nil
}

// pushOwnership POSTs a ring state to one shard's admin endpoint.
func (r *Router) pushOwnership(ctx context.Context, m *member, st RingState) error {
	payload, err := json.Marshal(st)
	if err != nil {
		return err
	}
	resp, cancel, err := r.leg(ctx, r.cfg.ShardTimeout, m, "/v1/shard/ownership", payload)
	if err != nil {
		return err
	}
	defer cancel()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("shard %s answered %d: %s", m.name, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return nil
}
