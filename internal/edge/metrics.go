package edge

import (
	"expvar"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// Metrics are built from expvar types — expvar.Int counters,
// expvar.Func snapshots, and a histogram implementing expvar.Var —
// but kept in an unpublished expvar.Map so multiple Edge instances
// (tests, embedded use) never collide in the process-global registry.
// The /metrics endpoint serializes the map exactly the way
// /debug/vars would.

// latencyBucketsMS are the histogram upper bounds, in milliseconds:
// log-spaced from 10 µs, doubling up to 10.49 s, so a sub-millisecond
// request's quantiles come from its own bucket rather than from
// interpolating across the first millisecond. The last bucket is +Inf.
var latencyBucketsMS = func() []float64 {
	b := make([]float64, 21)
	for i, ms := 0, 0.01; i < len(b); i, ms = i+1, ms*2 {
		b[i] = ms
	}
	return b
}()

// histogram is a fixed-bucket latency histogram. It implements
// expvar.Var: String() renders counts plus interpolated p50/p99.
type histogram struct {
	buckets  []atomic.Int64 // len(latencyBucketsMS)+1, last = +Inf
	count    atomic.Int64
	sumMicro atomic.Int64
}

func newHistogram() *histogram {
	return &histogram{buckets: make([]atomic.Int64, len(latencyBucketsMS)+1)}
}

func (h *histogram) observe(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	i := sort.SearchFloat64s(latencyBucketsMS, ms)
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumMicro.Add(int64(d / time.Microsecond))
}

// quantile estimates the q-th latency quantile in milliseconds by
// linear interpolation within the bucket holding it. The +Inf bucket
// reports its lower bound.
func (h *histogram) quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum, prev int64
	lo := 0.0
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		if float64(cum) >= rank {
			if i == len(latencyBucketsMS) {
				return lo
			}
			hi := latencyBucketsMS[i]
			n := cum - prev
			if n == 0 {
				return hi
			}
			frac := (rank - float64(prev)) / float64(n)
			return lo + frac*(hi-lo)
		}
		prev = cum
		if i < len(latencyBucketsMS) {
			lo = latencyBucketsMS[i]
		}
	}
	return lo
}

// String implements expvar.Var with a JSON object.
func (h *histogram) String() string {
	var b strings.Builder
	count := h.count.Load()
	mean := 0.0
	if count > 0 {
		mean = float64(h.sumMicro.Load()) / float64(count) / 1000.0
	}
	fmt.Fprintf(&b, `{"count":%d,"mean_ms":%.3f,"p50_ms":%.3f,"p99_ms":%.3f,"buckets":{`,
		count, mean, h.quantile(0.50), h.quantile(0.99))
	for i := range h.buckets {
		if i > 0 {
			b.WriteByte(',')
		}
		label := "+inf"
		if i < len(latencyBucketsMS) {
			label = fmt.Sprintf("le_%gms", latencyBucketsMS[i])
		}
		fmt.Fprintf(&b, `"%s":%d`, label, h.buckets[i].Load())
	}
	b.WriteString("}}")
	return b.String()
}

// endpointMetrics tracks one endpoint's request counts by status
// class and its latency histogram.
type endpointMetrics struct {
	byClass [len(statusClasses)]expvar.Int
	latency *histogram
}

var statusClasses = [...]string{"2xx", "3xx", "4xx", "5xx"}

func newEndpointMetrics(root *expvar.Map, name string) *endpointMetrics {
	em := &endpointMetrics{latency: newHistogram()}
	counts := new(expvar.Map).Init()
	for i, class := range statusClasses {
		counts.Set(class, &em.byClass[i])
	}
	root.Set("requests_"+name, counts)
	root.Set("latency_"+name, em.latency)
	return em
}

// observe counts one response; anything below 300 is a 2xx, anything
// from 500 up a 5xx.
func (em *endpointMetrics) observe(status int, d time.Duration) {
	em.byClass[min(max(status/100, 2), 5)-2].Add(1)
	em.latency.observe(d)
}

// endpoint returns the named endpoint's counters, creating and
// publishing them on first use. Handle calls it at route registration,
// never per request.
func (e *Edge) endpoint(name string) *endpointMetrics {
	e.mu.Lock()
	defer e.mu.Unlock()
	em, ok := e.endpoints[name]
	if !ok {
		em = newEndpointMetrics(e.root, name)
		e.endpoints[name] = em
	}
	return em
}

// Publish registers a live snapshot under name (rendered as JSON on
// every /metrics read).
func (e *Edge) Publish(name string, fn func() any) {
	e.root.Set(name, expvar.Func(fn))
}

// Count5xx sums the 5xx counters across endpoints (tests assert on it).
func (e *Edge) Count5xx() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	var n int64
	for _, em := range e.endpoints {
		n += em.byClass[len(statusClasses)-1].Value()
	}
	return n
}

// ServeMetrics renders the metric tree as one JSON document, mirroring
// expvar's /debug/vars rendering. Register it through Handle like any
// other route.
func (e *Edge) ServeMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	fmt.Fprintf(w, "{\n")
	first := true
	e.root.Do(func(kv expvar.KeyValue) {
		if !first {
			fmt.Fprintf(w, ",\n")
		}
		first = false
		fmt.Fprintf(w, "%q: %s", kv.Key, kv.Value)
	})
	fmt.Fprintf(w, "\n}\n")
}
