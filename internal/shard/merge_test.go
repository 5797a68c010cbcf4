package shard

// Tests of the router's batch merge against fake members: it holds one
// read buffer per shard however long the batch (TCP flow control holds
// the rest), leaves no goroutine or leg behind, streams line 0 while a
// later line is still held, and answers byte-for-byte what the slot
// merge it replaced answered (slotMergeBatch, kept here as the
// reference).

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"permadead/internal/core"
	"permadead/internal/edge"
	"permadead/internal/urlutil"
)

// fakeMember starts a member that answers /healthz and hands each batch
// sub-request's links, in order, to batch.
func fakeMember(t *testing.T, batch func(w http.ResponseWriter, req *http.Request, urls []string)) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {})
	mux.HandleFunc("/v1/classify/batch", func(w http.ResponseWriter, req *http.Request) {
		var body struct {
			URLs []string `json:"urls"`
		}
		if err := json.NewDecoder(req.Body).Decode(&body); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		batch(w, req, body.URLs)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// fakeRouter fronts members "a" and "b" with a router whose health
// changes only through leg failures.
func fakeRouter(t *testing.T, a, b *httptest.Server) *Router {
	t.Helper()
	r, err := NewRouter(RouterConfig{
		Members:        []Member{{Name: "a", Base: a.URL}, {Name: "b", Base: b.URL}},
		ShardTimeout:   30 * time.Second,
		HealthInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

// batchURLs returns links in the order owners spells: owners[i] names
// the ring owner of link i. Each link has its own domain.
func batchURLs(ring *Ring, owners string) []string {
	next := map[byte]int{}
	out := make([]string, len(owners))
	for i := range out {
		for {
			u := fmt.Sprintf("http://d%d.simtest/p", next[owners[i]])
			next[owners[i]]++
			if ring.OwnerOfURL(u) == owners[i:i+1] {
				out[i] = u
				break
			}
		}
	}
	return out
}

// verdictLine is a fake member's answer for u, padded to size bytes
// when size is larger than the bare line.
func verdictLine(u string, size int) []byte {
	head := fmt.Sprintf(`{"url":%q,"pad":"`, u)
	return []byte(head + strings.Repeat("x", max(0, size-len(head)-3)) + "\"}\n")
}

func batchBody(urls []string) []byte {
	raw, _ := json.Marshal(map[string][]string{"urls": urls}) //nolint:errcheck
	return raw
}

// routerGoroutines lists the goroutines running router code, other than
// the health loop.
func routerGoroutines() []string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	var out []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "internal/shard.(*Router)") && !strings.Contains(g, "healthLoop") {
			out = append(out, g)
		}
	}
	return out
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// settle waits until v stops changing for 300 ms and returns it.
func settle(v *atomic.Int64) int64 {
	last := v.Load()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		time.Sleep(300 * time.Millisecond)
		now := v.Load()
		if now == last {
			break
		}
		last = now
	}
	return last
}

// TestFleetBatchMergeBounded holds member a's only line, at global
// index 0, while member b streams the other 9 999 lines of 4 KiB — 40
// MB, far beyond loopback socket buffering. The merge must not read
// ahead of line 0: fewer than half of b's lines may have been written
// while a stalls. Released, the body is the input-order concatenation;
// after it, and after a client that hangs up mid-stall, no router
// goroutine or shard leg remains.
func TestFleetBatchMergeBounded(t *testing.T) {
	const lineSize = 4 << 10
	var release atomic.Pointer[chan struct{}]
	var written, active atomic.Int64
	a := fakeMember(t, func(w http.ResponseWriter, req *http.Request, urls []string) {
		active.Add(1)
		defer active.Add(-1)
		select {
		case <-*release.Load():
		case <-req.Context().Done():
			return
		}
		for _, u := range urls {
			w.Write(verdictLine(u, lineSize)) //nolint:errcheck
		}
	})
	b := fakeMember(t, func(w http.ResponseWriter, req *http.Request, urls []string) {
		active.Add(1)
		defer active.Add(-1)
		for _, u := range urls {
			if _, err := w.Write(verdictLine(u, lineSize)); err != nil {
				return
			}
			written.Add(1)
		}
	})
	r := fakeRouter(t, a, b)
	front := httptest.NewServer(r.Handler())
	t.Cleanup(front.Close)
	urls := batchURLs(r.Ring(), "a"+strings.Repeat("b", edge.MaxBatchLinks-1))
	healthy := int64(len(urls) - 1)

	// start posts the batch; the returned channel yields the body once
	// it has been read to its end.
	start := func(ctx context.Context) <-chan []byte {
		ch := make(chan struct{})
		release.Store(&ch)
		written.Store(0)
		got := make(chan []byte, 1)
		go func() {
			req, _ := http.NewRequestWithContext(ctx, http.MethodPost, front.URL+"/v1/classify/batch", bytes.NewReader(batchBody(urls)))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				got <- nil
				return
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			got <- body
		}()
		return got
	}
	noLeftovers := func() {
		t.Helper()
		waitFor(t, "every member's batch handler to return", func() bool { return active.Load() == 0 })
		waitFor(t, "the router's goroutines to end", func() bool { return len(routerGoroutines()) == 0 })
	}

	got := start(context.Background())
	waitFor(t, "member b to start streaming", func() bool { return written.Load() > 0 })
	n := settle(&written)
	t.Logf("member b wrote %d of its %d lines while line 0 was held", n, healthy)
	if n >= healthy/2 {
		t.Errorf("while line 0 is held, member b wrote %d of its %d lines; the merge read ahead of its frontier", n, healthy)
	}
	close(*release.Load())
	var want bytes.Buffer
	for _, u := range urls {
		want.Write(verdictLine(u, lineSize))
	}
	if body := <-got; !bytes.Equal(body, want.Bytes()) {
		t.Fatalf("merged body (%d bytes) is not the input-order concatenation (%d bytes)", len(body), want.Len())
	}
	noLeftovers()

	// A client that hangs up while line 0 is held.
	ctx, hangUp := context.WithCancel(context.Background())
	got = start(ctx)
	waitFor(t, "member b to start streaming", func() bool { return written.Load() > 0 })
	settle(&written)
	hangUp()
	<-got
	noLeftovers()
}

// TestFleetBatchStreams: line 0, from member a, reaches the client
// while line 1, from member b, is still held.
func TestFleetBatchStreams(t *testing.T) {
	release := make(chan struct{})
	a := fakeMember(t, func(w http.ResponseWriter, _ *http.Request, urls []string) {
		for _, u := range urls {
			w.Write(verdictLine(u, 0)) //nolint:errcheck
		}
	})
	b := fakeMember(t, func(w http.ResponseWriter, req *http.Request, urls []string) {
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush() // the leg is up; only its line is held
		select {
		case <-release:
		case <-req.Context().Done():
			return
		}
		for _, u := range urls {
			w.Write(verdictLine(u, 0)) //nolint:errcheck
		}
	})
	r := fakeRouter(t, a, b)
	front := httptest.NewServer(r.Handler())
	t.Cleanup(front.Close)
	urls := batchURLs(r.Ring(), "ab")

	// The client reads line 0, then, once member b is released, the rest.
	first, rest := make(chan string, 1), make(chan string, 1)
	go func() {
		resp, err := http.Post(front.URL+"/v1/classify/batch", "application/json", bytes.NewReader(batchBody(urls)))
		if err != nil {
			first <- err.Error()
			return
		}
		defer resp.Body.Close()
		br := bufio.NewReader(resp.Body)
		line, _ := br.ReadString('\n')
		first <- line
		<-release
		tail, _ := io.ReadAll(br)
		rest <- string(tail)
	}()
	select {
	case line := <-first:
		close(release)
		if want := string(verdictLine(urls[0], 0)); line != want {
			t.Fatalf("line 0 = %q, want %q", line, want)
		}
	case <-time.After(5 * time.Second):
		close(release)
		t.Fatal("line 0 was held while member b held line 1")
	}
	if got, want := <-rest, string(verdictLine(urls[1], 0)); got != want {
		t.Errorf("line 1 = %q, want %q", got, want)
	}
}

// failingWriter is a client that hangs up after its first ok writes:
// every later write fails, and the request's context is cancelled.
type failingWriter struct {
	*httptest.ResponseRecorder
	ok     int
	hangUp context.CancelFunc
}

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.ok == 0 {
		w.hangUp()
		return 0, errors.New("client gone")
	}
	w.ok--
	return w.ResponseRecorder.Write(p)
}

// slowWriter is a client that takes stall to read the write after its
// first ok, long after the merge last waited on a leg.
type slowWriter struct {
	*httptest.ResponseRecorder
	ok    int
	stall time.Duration
}

func (w *slowWriter) Write(p []byte) (int, error) {
	if w.ok == 0 {
		time.Sleep(w.stall)
	}
	w.ok--
	return w.ResponseRecorder.Write(p)
}

// TestFleetBatchMatchesSlotMerge holds the merge byte-equal to the slot
// merge it replaced, with member b healthy and member a down, unreachable,
// answering 500, truncating its stream cleanly or by aborting, hanging
// past ShardTimeout while b streams more than the socket buffers hold,
// or behind a client that hung up before or during the batch or reads
// more slowly than ShardTimeout.
func TestFleetBatchMatchesSlotMerge(t *testing.T) {
	lines := func(w http.ResponseWriter, urls []string) {
		for _, u := range urls {
			w.Write(verdictLine(u, 0)) //nolint:errcheck
		}
	}
	healthy := fakeMember(t, func(w http.ResponseWriter, _ *http.Request, urls []string) { lines(w, urls) })
	closed := fakeMember(t, nil)
	closed.Close()
	// bulk answers lines of 4 KiB: 2 000 of them are about twice what
	// TestFleetBatchMergeBounded sees loopback buffer.
	bulk := fakeMember(t, func(w http.ResponseWriter, _ *http.Request, urls []string) {
		for _, u := range urls {
			w.Write(verdictLine(u, 4<<10)) //nolint:errcheck
		}
	})
	long := "a" + strings.Repeat("b", 2000) + "a"
	const timeout = time.Second
	cases := []struct {
		name      string
		a, b      *httptest.Server // b nil: healthy
		owners    string           // empty: a short mix
		down      bool
		cancelled bool          // the client hung up before the batch
		failAt    int           // writes the client takes before it hangs up; 0: never
		stall     time.Duration // the client's read of write 100; 0: at once
		errCode   string        // the code of member a's error lines, if any
	}{
		{name: "healthy", a: healthy},
		{name: "down", a: healthy, down: true, errCode: "shard_down"},
		{name: "unreachable", a: closed, errCode: "shard_unreachable"},
		{name: "non-200", a: fakeMember(t, func(w http.ResponseWriter, _ *http.Request, _ []string) {
			http.Error(w, "overloaded", http.StatusInternalServerError)
		}), errCode: "shard_error"},
		{name: "truncated", a: fakeMember(t, func(w http.ResponseWriter, _ *http.Request, urls []string) {
			lines(w, urls[:2])
		}), errCode: "shard_unreachable"},
		{name: "aborted", a: fakeMember(t, func(w http.ResponseWriter, _ *http.Request, urls []string) {
			lines(w, urls[:2])
			w.(http.Flusher).Flush()
			panic(http.ErrAbortHandler)
		}), errCode: "shard_unreachable"},
		{name: "hung", a: fakeMember(t, func(_ http.ResponseWriter, req *http.Request, _ []string) {
			<-req.Context().Done()
		}), b: bulk, owners: long, errCode: "shard_unreachable"},
		{name: "cancelled", a: healthy, cancelled: true},
		{name: "hung-up", a: healthy, failAt: 5},
		{name: "slow-client", a: healthy, b: bulk, owners: long, stall: timeout + timeout/2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.b == nil {
				tc.b = healthy
			}
			if tc.owners == "" {
				tc.owners = "abaabbbaababbaaab"
			}
			r := fakeRouter(t, tc.a, tc.b)
			r.cfg.ShardTimeout = timeout
			urls := batchURLs(r.Ring(), tc.owners)
			run := func(h http.HandlerFunc) *httptest.ResponseRecorder {
				r.members["a"].healthy.Store(!tc.down)
				ctx, cancel := context.WithCancel(context.Background())
				if tc.cancelled {
					cancel()
				}
				defer cancel()
				req := httptest.NewRequest(http.MethodPost, "/v1/classify/batch", bytes.NewReader(batchBody(urls))).WithContext(ctx)
				rec := httptest.NewRecorder()
				var w http.ResponseWriter = rec
				if tc.failAt > 0 {
					w = &failingWriter{ResponseRecorder: rec, ok: tc.failAt, hangUp: cancel}
				}
				if tc.stall > 0 {
					w = &slowWriter{ResponseRecorder: rec, ok: 100, stall: tc.stall}
				}
				h(w, req)
				return rec
			}
			want, got := run(r.slotMergeBatch), run(r.handleBatch)
			for _, h := range []string{"Content-Type", "X-Batch-Links", "X-Fleet-Partial", "Retry-After"} {
				if got.Header().Get(h) != want.Header().Get(h) {
					t.Errorf("%s = %q, slot merge %q", h, got.Header().Get(h), want.Header().Get(h))
				}
			}
			if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
				t.Errorf("status %d body\n%.2000s\nslot merge: status %d body\n%.2000s", got.Code, got.Body, want.Code, want.Body)
			}
			body := got.Body.String()
			switch {
			case strings.Contains(body, "shard b"):
				t.Errorf("healthy member b's lines became errors:\n%.2000s", body)
			case tc.errCode != "" && !strings.Contains(body, `"code":"`+tc.errCode+`"`):
				t.Errorf("no %s line:\n%s", tc.errCode, body)
			case tc.cancelled && body != "":
				t.Errorf("a cancelled client was written %q", body)
			case tc.failAt > 0 && strings.Count(body, "\n") != tc.failAt:
				t.Errorf("a client that hung up after %d writes holds %d lines", tc.failAt, strings.Count(body, "\n"))
			}
		})
	}
}

// slotMergeBatch is the batch merge the router used before the owner
// streams were read in input order: a capacity-1 slot per line, filled
// by one goroutine per shard, drained in order by core.StreamOrderedIdle
// with 2·parts+1 workers. It holds every line the healthy shards sent
// while one stalls. Kept as the reference TestFleetBatchMatchesSlotMerge
// compares against.
func (r *Router) slotMergeBatch(w http.ResponseWriter, req *http.Request) {
	urls, ok := edge.DecodeBatch(w, req)
	if !ok {
		return
	}
	ring := r.ring.Load()
	type part struct {
		m    *member
		idxs []int
	}
	parts := make(map[string]*part)
	for i, u := range urls {
		name := ring.Owner(urlutil.Domain(u))
		p := parts[name]
		if p == nil {
			p = &part{m: r.members[name]}
			parts[name] = p
		}
		p.idxs = append(p.idxs, i)
	}
	n := len(urls)
	slots := make([]chan []byte, n)
	for i := range slots {
		slots[i] = make(chan []byte, 1)
	}
	var down []string
	ctx, cancel := context.WithCancel(req.Context())
	defer cancel()
	var wg sync.WaitGroup
	for _, p := range parts {
		if !p.m.healthy.Load() {
			down = append(down, p.m.name)
			for _, i := range p.idxs {
				slots[i] <- edge.ErrLine(urls[i], "shard_down",
					fmt.Sprintf("shard %s is down; retry shortly", p.m.name))
			}
			continue
		}
		wg.Add(1)
		go func(p *part) {
			defer wg.Done()
			r.slotSubBatch(ctx, p.m, urls, p.idxs, slots)
		}(p)
	}
	w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
	w.Header().Set("X-Batch-Links", strconv.Itoa(n))
	if len(down) > 0 {
		sort.Strings(down)
		w.Header().Set("X-Fleet-Partial", strings.Join(down, ","))
		w.Header().Set("Retry-After", retryAfter)
		r.degraded.Add(1)
	}
	emit, flush := edge.LineWriter(w)
	//nolint:errcheck // a mid-stream client disconnect just ends the stream
	core.StreamOrderedIdle(ctx, n, 2*len(parts)+1,
		func(i int) []byte {
			select {
			case line := <-slots[i]:
				return line
			case <-ctx.Done():
				return edge.ErrLine(urls[i], "client_closed_request", "request canceled")
			}
		},
		emit, flush)
	cancel()
	wg.Wait()
}

func (r *Router) slotSubBatch(ctx context.Context, m *member, urls []string, idxs []int, slots []chan []byte) {
	sub := make([]string, len(idxs))
	for k, i := range idxs {
		sub[k] = urls[i]
	}
	payload, _ := json.Marshal(map[string][]string{"urls": sub}) //nolint:errcheck
	failFrom := func(k int, code string, msg string) {
		for ; k < len(idxs); k++ {
			slots[idxs[k]] <- edge.ErrLine(urls[idxs[k]], code, msg)
		}
	}
	resp, cancel, err := r.leg(ctx, r.cfg.ShardTimeout, m, "/v1/classify/batch", payload)
	if err != nil {
		if !m.legFailed(ctx) {
			failFrom(0, "client_closed_request", "request canceled")
			return
		}
		failFrom(0, "shard_unreachable", fmt.Sprintf("shard %s: %v", m.name, err))
		return
	}
	defer cancel()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		failFrom(0, "shard_error", fmt.Sprintf("shard %s answered %d: %s", m.name, resp.StatusCode, bytes.TrimSpace(raw)))
		return
	}
	m.proxied.Add(1)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	k := 0
	for k < len(idxs) && sc.Scan() {
		slots[idxs[k]] <- append(append([]byte(nil), sc.Bytes()...), '\n')
		k++
	}
	if k < len(idxs) {
		msg := fmt.Sprintf("shard %s stream truncated at line %d of %d", m.name, k, len(idxs))
		if err := sc.Err(); err != nil {
			msg += ": " + err.Error()
		}
		failFrom(k, "shard_unreachable", msg)
	}
}
