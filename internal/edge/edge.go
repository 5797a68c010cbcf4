// Package edge is the serving edge permadeadd and permadead-router
// share: one request wrapper, one wire contract (error envelope, batch
// and sample request shapes, NDJSON lines) and one metrics tree. It is
// a leaf — it imports no other permadead package — so the shard server
// (internal/service) and the router (internal/shard) both build their
// route trees from it without importing each other.
package edge

import (
	"context"
	"expvar"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Tier selects how much of the serving contract a route gets. Every
// tier checks the method first (405s carry an Allow header) and records
// status class + latency last; the tiers differ in what sits between.
type Tier int

const (
	// Query is a bounded request: refused with 503 while draining, run
	// under the edge's per-request deadline, and admitted through the
	// gate (queue, then shed at the deadline). Latency includes the
	// admission wait — that is the latency a client sees.
	Query Tier = iota
	// Stream is refused while draining but holds no gate slot and has no
	// deadline: a long-lived response (SSE) would starve query traffic
	// and be killed by the deadline, and a proxied one (the router) is
	// bounded by its legs and admitted by the shard it lands on.
	Stream
	// Admin lands even while the data plane is saturated or draining: a
	// ring push, a member flip or a metrics read is what an operator
	// reaches for in exactly those moments.
	Admin
)

// Edge is one process's serving edge: the drain flag, the admission
// gate and deadline of its query tier, and its metrics tree.
type Edge struct {
	// Gate bounds the query tier's in-flight requests.
	Gate     *Gate
	timeout  time.Duration
	draining atomic.Bool

	// The metrics tree (metrics.go): root is what /metrics renders;
	// endpoints indexes the per-endpoint counters Handle registers.
	root      *expvar.Map
	mu        sync.Mutex
	endpoints map[string]*endpointMetrics
}

// New builds an edge admitting at most maxInFlight query-tier requests
// at once, each under the given deadline. An edge that registers no
// query-tier route (the router) never consults either.
func New(maxInFlight int, timeout time.Duration) *Edge {
	return &Edge{
		Gate:      NewGate(maxInFlight),
		timeout:   timeout,
		root:      new(expvar.Map).Init(),
		endpoints: make(map[string]*endpointMetrics),
	}
}

// BeginDrain makes every later query- and stream-tier request answer
// 503 draining; requests already past the check keep running.
func (e *Edge) BeginDrain() { e.draining.Store(true) }

// Draining reports whether BeginDrain has been called.
func (e *Edge) Draining() bool { return e.draining.Load() }

// Handle wraps h with the serving contract of its tier and counts it
// under the metrics keys requests_<name> and latency_<name>. Routes
// may share a name.
func (e *Edge) Handle(name, method string, tier Tier, h http.HandlerFunc) http.Handler {
	ep := e.endpoint(name)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		defer func() { ep.observe(rec.status, time.Since(start)) }()

		if r.Method != method {
			rec.Header().Set("Allow", method)
			WriteError(rec, http.StatusMethodNotAllowed, "method_not_allowed", "use %s", method)
			return
		}
		if tier != Admin && e.draining.Load() {
			WriteError(rec, http.StatusServiceUnavailable, "draining", "server is shutting down")
			return
		}
		if tier != Query {
			h(rec, r)
			return
		}

		ctx, cancel := context.WithTimeout(r.Context(), e.timeout)
		defer cancel()
		if err := e.Gate.Acquire(ctx); err != nil {
			WriteError(rec, http.StatusServiceUnavailable, "overloaded",
				"no capacity within the request deadline: %v", err)
			return
		}
		defer e.Gate.Release()
		h(rec, r.WithContext(ctx))
	})
}

// statusRecorder captures the response status for metrics. Wrapping a
// ResponseWriter hides its interface upgrades, so the two this API
// uses are forwarded: http.Flusher (NDJSON lines and SSE events reach
// the client as produced) and io.ReaderFrom (the router's io.Copy of a
// shard body keeps net/http's pooled copy buffer). Nothing here hijacks
// connections or uses HTTP/2 push.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Flush() {
	if f, ok := sr.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (sr *statusRecorder) ReadFrom(src io.Reader) (int64, error) {
	if rf, ok := sr.ResponseWriter.(io.ReaderFrom); ok {
		return rf.ReadFrom(src)
	}
	// Hide this method from io.Copy, or it would call straight back.
	return io.Copy(struct{ io.Writer }{sr.ResponseWriter}, src)
}

// Gate is the load-shedding semaphore: a counting bound on in-flight
// work. A caller that cannot get a slot waits — queuing is the normal
// overload response, so a burst of N > max concurrent clients is
// absorbed, not 5xx'd — until its own deadline or disconnect cancels
// the wait, at which point it is rejected and counted. The same type
// doubles as a worker pool for expensive handlers (classification),
// nested inside the edge's gate.
type Gate struct {
	slots    chan struct{}
	rejected atomic.Int64
}

// NewGate returns a gate with n slots (at least one).
func NewGate(n int) *Gate {
	return &Gate{slots: make(chan struct{}, max(1, n))}
}

// Acquire blocks until a slot frees up or ctx is done. It returns nil
// on success; the caller must Release exactly once.
func (g *Gate) Acquire(ctx context.Context) error {
	select {
	case g.slots <- struct{}{}:
		return nil
	default:
	}
	select {
	case g.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		g.rejected.Add(1)
		return ctx.Err()
	}
}

// Release frees the slot a successful Acquire took.
func (g *Gate) Release() { <-g.slots }

// InFlight reports how many slots are currently held.
func (g *Gate) InFlight() int { return len(g.slots) }

// Max reports the gate's capacity.
func (g *Gate) Max() int { return cap(g.slots) }

// Rejected reports how many Acquires gave up waiting.
func (g *Gate) Rejected() int64 { return g.rejected.Load() }
