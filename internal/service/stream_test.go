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
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"permadead/internal/edge"
	"permadead/internal/monitor"
	"permadead/internal/persist"
	"permadead/internal/worldgen"
)

// The stream tests need a universe with a continuous flip supply:
// every site flaky, fault windows extending past the study day. It is
// generated once and shared; the tests never mutate generated articles
// (sim/edit tests create fresh titles), so servers built over it stay
// independent.
var (
	streamOnce   sync.Once
	streamBundle *persist.Bundle
)

func streamFixture(t *testing.T) *persist.Bundle {
	t.Helper()
	streamOnce.Do(func() { streamBundle = flakyBundle() })
	return streamBundle
}

// flakyBundle generates a universe with a continuous flip supply.
func flakyBundle() *persist.Bundle {
	p := worldgen.SmallParams()
	p.FlakySiteFrac = 1
	p.FlakyRate = 0.85
	p.FlakyStreamDays = 400
	return persist.FromUniverse(worldgen.Generate(p))
}

// newStreamServer builds a monitor-enabled server over the flaky
// fixture with a short re-check TTL, served over loopback HTTP.
// Cleanup order matters: open stream cancels (registered later by
// openStream) run first, then Shutdown — which closes the monitor and
// with it every SSE handler — and only then the httptest close, so it
// never waits on a live stream.
func newStreamServer(t *testing.T, mut func(*Config)) (*Server, string) {
	t.Helper()
	return newStreamServerOver(t, streamFixture(t), mut)
}

func newStreamServerOver(t *testing.T, b *persist.Bundle, mut func(*Config)) (*Server, string) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Study.SampleSize = b.Params.SampleSize
	cfg.Study.CrawlArticles = 0
	cfg.MonitorTTLDays = 7
	if mut != nil {
		mut(&cfg)
	}
	s, err := New(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, ts.URL
}

func postJSON(t *testing.T, base, path string, body any, wantStatus int, out any) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s = %d, want %d (body: %s)", path, resp.StatusCode, wantStatus, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("POST %s: bad JSON: %v (body: %s)", path, err, raw)
		}
	}
}

// watchSampleArticles watches the first n sampled articles and returns
// the watch response.
func watchSampleArticles(t *testing.T, base string, n int) watchResponse {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/sample?n=%d&articles=1", base, n))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr edge.SampleResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Articles) != len(sr.URLs) || len(sr.Articles) == 0 {
		t.Fatalf("sample?articles=1: %d urls, %d articles", len(sr.URLs), len(sr.Articles))
	}
	seen := make(map[string]bool)
	var titles []string
	for _, a := range sr.Articles {
		if !seen[a] {
			seen[a] = true
			titles = append(titles, a)
		}
	}
	var wr watchResponse
	postJSON(t, base, "/v1/watch", map[string]any{"articles": titles}, http.StatusOK, &wr)
	if wr.WatchedLinks == 0 {
		t.Fatalf("watched %d articles but 0 links", len(titles))
	}
	return wr
}

// tickUntilFlips advances the clock in stepDays increments until the
// journal holds at least want flips (or the day budget runs out).
func tickUntilFlips(t *testing.T, base string, want, stepDays, maxDays int) tickResponse {
	t.Helper()
	var last tickResponse
	for spent := 0; spent < maxDays; spent += stepDays {
		postJSON(t, base, "/v1/sim/tick", map[string]int{"days": stepDays}, http.StatusOK, &last)
		if last.Stats.JournalEntries >= want {
			return last
		}
	}
	t.Fatalf("only %d flips after %d days (want >= %d)", last.Stats.JournalEntries, maxDays, want)
	return last
}

// sseEvent is one parsed frame off an SSE stream.
type sseEvent struct {
	id    int64
	event string
	data  string
}

// readSSE parses SSE frames from r onto ch until EOF.
func readSSE(r io.Reader, ch chan<- sseEvent) {
	defer close(ch)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var ev sseEvent
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if ev.event != "" || ev.data != "" {
				ch <- ev
			}
			ev = sseEvent{}
		case strings.HasPrefix(line, "id: "):
			ev.id, _ = strconv.ParseInt(line[4:], 10, 64)
		case strings.HasPrefix(line, "event: "):
			ev.event = line[7:]
		case strings.HasPrefix(line, "data: "):
			ev.data = line[6:]
		}
	}
}

// openStream connects to /v1/stream/verdicts and returns the event
// channel plus a cancel that tears the connection down.
func openStream(t *testing.T, base string, lastSeq int64) (<-chan sseEvent, context.CancelFunc) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	url := base + "/v1/stream/verdicts"
	if lastSeq > 0 {
		url += "?last_event_id=" + strconv.FormatInt(lastSeq, 10)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		cancel()
		t.Fatalf("stream = %d (body: %s)", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		resp.Body.Close()
		cancel()
		t.Fatalf("stream Content-Type = %q", ct)
	}
	ch := make(chan sseEvent, 1024)
	go func() {
		readSSE(resp.Body, ch)
		resp.Body.Close()
	}()
	t.Cleanup(cancel)
	return ch, cancel
}

// collectN receives n events or fails after timeout.
func collectN(t *testing.T, ch <-chan sseEvent, n int, timeout time.Duration) []sseEvent {
	t.Helper()
	var out []sseEvent
	deadline := time.After(timeout)
	for len(out) < n {
		select {
		case ev, ok := <-ch:
			if !ok {
				t.Fatalf("stream closed after %d of %d events", len(out), n)
			}
			out = append(out, ev)
		case <-deadline:
			t.Fatalf("timed out with %d of %d events", len(out), n)
		}
	}
	return out
}

// TestStreamDeliversFlipsLive is the SSE core contract: a subscriber
// connected before the flips happen receives every journaled flip as
// its own flushed "verdict" frame, ids matching journal seqs 1..N
// exactly once, with a wall-clock emission stamp (live delivery, not
// replay).
func TestStreamDeliversFlipsLive(t *testing.T) {
	s, base := newStreamServer(t, nil)

	watchSampleArticles(t, base, 120)
	ch, _ := openStream(t, base, 0)

	last := tickUntilFlips(t, base, 3, 15, 120)
	n := last.Stats.JournalEntries
	events := collectN(t, ch, n, 10*time.Second)

	for i, ev := range events {
		if ev.event != "verdict" {
			t.Fatalf("event %d: type %q, want verdict", i, ev.event)
		}
		if ev.id != int64(i+1) {
			t.Fatalf("event %d: id %d, want %d (exactly-once, in order)", i, ev.id, i+1)
		}
		var e monitor.Event
		if err := json.Unmarshal([]byte(ev.data), &e); err != nil {
			t.Fatalf("event %d: bad data: %v", i, err)
		}
		if e.Seq != ev.id {
			t.Fatalf("event %d: data seq %d != frame id %d", i, e.Seq, ev.id)
		}
		if e.Old == e.New || e.URL == "" {
			t.Fatalf("event %d: not a flip: %+v", i, e)
		}
		if e.EmittedUnixNs == 0 {
			t.Fatalf("event %d: live event carries no emission stamp", i)
		}
		if len(e.Articles) == 0 {
			t.Fatalf("event %d: flip names no citing articles", i)
		}
	}

	// The wire and the journal must agree entry for entry.
	jentries := s.jrnl.After(0)
	if len(jentries) != n {
		t.Fatalf("journal holds %d entries, stats said %d", len(jentries), n)
	}
	for i, je := range jentries {
		var e monitor.Event
		if err := json.Unmarshal([]byte(events[i].data), &e); err != nil {
			t.Fatal(err)
		}
		if e.URL != je.URL || e.Old != je.Old || e.New != je.New || e.Seq != je.Seq {
			t.Fatalf("event %d diverges from journal: wire %+v, journal %+v", i, e.Entry, je)
		}
	}
	if n := s.edge.Count5xx(); n != 0 {
		t.Errorf("%d 5xx responses while streaming", n)
	}
}

// TestStreamResumeExactlyOnce: a client that reconnects with
// Last-Event-ID k receives exactly entries k+1..N — no gap, no
// duplicate at the replay/live seam — and new flips after the
// reconnect continue the sequence on the same stream.
func TestStreamResumeExactlyOnce(t *testing.T) {
	s, base := newStreamServer(t, nil)

	watchSampleArticles(t, base, 120)
	last := tickUntilFlips(t, base, 4, 15, 120)
	n := last.Stats.JournalEntries
	k := n / 2

	// Resume via the standard header spelling.
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/stream/verdicts", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", strconv.Itoa(k))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	ch := make(chan sseEvent, 1024)
	go readSSE(resp.Body, ch)

	replay := collectN(t, ch, n-k, 10*time.Second)
	for i, ev := range replay {
		if want := int64(k + i + 1); ev.id != want {
			t.Fatalf("replay event %d: id %d, want %d", i, ev.id, want)
		}
		var e monitor.Event
		if err := json.Unmarshal([]byte(ev.data), &e); err != nil {
			t.Fatal(err)
		}
		if e.EmittedUnixNs != 0 {
			t.Fatalf("replayed event %d carries a live emission stamp", i)
		}
	}

	// More flips arrive live on the same resumed stream, continuing
	// the id sequence.
	last = tickUntilFlips(t, base, n+1, 15, 120)
	live := collectN(t, ch, last.Stats.JournalEntries-n, 10*time.Second)
	for i, ev := range live {
		if want := int64(n + i + 1); ev.id != want {
			t.Fatalf("post-resume live event %d: id %d, want %d", i, ev.id, want)
		}
	}
	if n := s.edge.Count5xx(); n != 0 {
		t.Errorf("%d 5xx responses across the resume", n)
	}
}

// TestRepairLoopEndToEnd is the -repair / -journal wiring at service
// level, over a long enough horizon (150 sim days across 120 sampled
// links) for fault windows to open and close: flips run in both
// directions and some dead verdict is flagged suspect; the IABot loop
// edits a watched article whose link flipped to dead, visibly in
// /v1/sim/article; and the on-disk journal survives shutdown, one flip
// per line from seq 1. The universe is private because the bot edits
// its articles.
func TestRepairLoopEndToEnd(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "journal.ndjson")
	s, base := newStreamServerOver(t, flakyBundle(), func(c *Config) {
		c.EnableRepair = true
		c.JournalPath = jpath
	})
	watchSampleArticles(t, base, 120)
	for spent := 0; spent < 150; spent += 15 {
		postJSON(t, base, "/v1/sim/tick", map[string]int{"days": 15}, http.StatusOK, nil)
	}

	entries := s.jrnl.After(0)
	var toDead, toAlive, suspect int
	for _, e := range entries {
		switch e.New {
		case "dead":
			toDead++
			if e.Suspect {
				suspect++
			}
		case "alive":
			toAlive++
		}
	}
	if toDead == 0 || toAlive == 0 {
		t.Fatalf("flips are one-directional: %d to dead, %d to alive (fault windows should open and close)", toDead, toAlive)
	}
	if suspect == 0 {
		t.Error("no dead verdict was flagged suspect despite fault windows")
	}

	st, err := s.mon.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.RepairsEdited == 0 {
		t.Fatal("EnableRepair set, links flipped to dead, but repairs_edited = 0")
	}
	marked := false
	for _, e := range entries {
		if e.New != "dead" {
			continue
		}
		for _, title := range e.Articles {
			var ar struct {
				Text string `json:"text"`
			}
			getJSON(t, s.Handler(), "/v1/sim/article?title="+queryEscape(title), http.StatusOK, &ar)
			if strings.Contains(ar.Text, "archive-url=") || strings.Contains(ar.Text, "{{Dead link") {
				marked = true
			}
		}
	}
	if !marked {
		t.Errorf("%d repairs counted but no flipped article carries archive-url or {{Dead link}}", st.RepairsEdited)
	}
	if n := s.edge.Count5xx(); n != 0 {
		t.Errorf("%d 5xx responses during the repair run", n)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != len(entries) || !strings.Contains(lines[0], `"seq":1,`) {
		t.Fatalf("journal file holds %d lines for %d flips, first line %q", len(lines), len(entries), lines[0])
	}
}

// TestStreamSlowConsumerDropped: with a 1-event buffer and the writer
// stalled, the monitor drops the subscriber rather than blocking; the
// stream ends with a terminal "dropped" frame. Runs under -race in CI.
func TestStreamSlowConsumerDropped(t *testing.T) {
	release := make(chan struct{})
	var hookOnce, releaseOnce sync.Once
	free := func() { releaseOnce.Do(func() { close(release) }) }
	s, base := newStreamServer(t, func(cfg *Config) {
		cfg.SSESubscriberBuffer = 1
	})
	// Registered after the server cleanups, so it runs before them: a
	// failure path must unstall the handler before the httptest close
	// waits on its connection.
	t.Cleanup(free)
	// Stall only the first write: the handler then sits inside the hook
	// while flips fill (and overflow) the 1-slot buffer.
	s.testHookStreamWrite = func() {
		var stall bool
		hookOnce.Do(func() { stall = true })
		if stall {
			<-release
		}
	}

	watchSampleArticles(t, base, 120)
	ch, _ := openStream(t, base, 0)

	tickUntilFlips(t, base, 3, 15, 120)
	st, err := s.mon.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.SubsDropped == 0 {
		t.Fatal("monitor never dropped the stalled subscriber")
	}
	free()

	var sawDropped bool
	deadline := time.After(10 * time.Second)
	for !sawDropped {
		select {
		case ev, ok := <-ch:
			if !ok {
				t.Fatal("stream ended without a dropped frame")
			}
			if ev.event == "dropped" {
				sawDropped = true
			}
		case <-deadline:
			t.Fatal("timed out waiting for the dropped frame")
		}
	}
	// The journal kept everything the slow consumer missed.
	if got := s.jrnl.Len(); got < 3 {
		t.Fatalf("journal holds %d entries, want >= 3", got)
	}
}

// TestStreamEndsOnShutdown: Shutdown closes the monitor, which ends
// live streams promptly instead of hanging the drain.
func TestStreamEndsOnShutdown(t *testing.T) {
	s, base := newStreamServer(t, nil)

	watchSampleArticles(t, base, 40)
	ch, _ := openStream(t, base, 0)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown with a live stream: %v", err)
	}
	select {
	case _, ok := <-ch:
		if ok {
			// A buffered event is fine; the channel must still close.
			for range ch { //nolint:revive // draining to closure
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream did not end after shutdown")
	}
}

// TestWatchValidation covers the handler-level contract: an empty
// watch, an unknown article, and the monitor-disabled configuration.
func TestWatchValidation(t *testing.T) {
	_, base := newStreamServer(t, nil)

	postJSON(t, base, "/v1/watch", map[string]any{}, http.StatusBadRequest, nil)
	postJSON(t, base, "/v1/watch", map[string]any{"articles": []string{"No Such Article"}}, http.StatusNotFound, nil)
	postJSON(t, base, "/v1/sim/tick", map[string]int{"days": -1}, http.StatusBadRequest, nil)

	_, baseOff := newStreamServer(t, func(cfg *Config) { cfg.DisableMonitor = true })
	postJSON(t, baseOff, "/v1/watch", map[string]any{"urls": []string{"http://x.example/"}}, http.StatusNotFound, nil)
	resp, err := http.Get(baseOff + "/v1/stream/verdicts")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("stream with monitor disabled = %d, want 404", resp.StatusCode)
	}
}

// TestSimEditMembership: an edit that removes a link from the only
// watched article citing it releases the watch; an edit adding a link
// to a watched article starts watching it — the live-ingestion path
// end to end over HTTP.
var membershipRuns atomic.Int32

func TestSimEditMembership(t *testing.T) {
	_, base := newStreamServer(t, nil)

	// Two known-alive URLs: sampled links' hosts exist in the world, so
	// reuse two of them (verdicts don't matter for membership).
	resp, err := http.Get(base + "/v1/sample?n=2")
	if err != nil {
		t.Fatal(err)
	}
	var sr edge.SampleResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(sr.URLs) < 2 {
		t.Fatalf("sample returned %d URLs", len(sr.URLs))
	}
	u1, u2 := sr.URLs[0], sr.URLs[1]

	// The fixture wiki is shared across repeats (-count), so each run
	// creates its own article.
	title := fmt.Sprintf("Stream Membership Test %d", membershipRuns.Add(1))
	var er editResponse
	postJSON(t, base, "/v1/sim/edit", map[string]string{
		"title": title, "text": "A citation.[" + u1 + " src]",
	}, http.StatusOK, &er)
	if !er.Created {
		t.Fatalf("expected article creation, got %+v", er)
	}

	var wr watchResponse
	postJSON(t, base, "/v1/watch", map[string]any{"articles": []string{title}}, http.StatusOK, &wr)
	if wr.Added != 1 {
		t.Fatalf("watch added %d links, want 1", wr.Added)
	}

	watched := func() map[string]monitor.LinkStatus {
		var resp watchedResponse
		r, err := http.Get(base + "/v1/watched")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		if err := json.NewDecoder(r.Body).Decode(&resp); err != nil {
			t.Fatal(err)
		}
		out := make(map[string]monitor.LinkStatus, len(resp.Links))
		for _, ls := range resp.Links {
			out[ls.URL] = ls
		}
		return out
	}
	if _, ok := watched()[u1]; !ok {
		t.Fatalf("%s not watched after watching its article", u1)
	}

	// Replace u1 with u2; tick 0 flushes the feed.
	postJSON(t, base, "/v1/sim/edit", map[string]string{
		"title": title, "text": "A citation.[" + u2 + " src]",
	}, http.StatusOK, nil)
	postJSON(t, base, "/v1/sim/tick", map[string]int{"days": 0}, http.StatusOK, nil)

	table := watched()
	if _, ok := table[u1]; ok {
		t.Fatalf("%s still watched after its article dropped it", u1)
	}
	if _, ok := table[u2]; !ok {
		t.Fatalf("%s not watched after its article added it", u2)
	}

	var ar articleResponse
	r2, err := http.Get(base + "/v1/sim/article?title=" + strings.ReplaceAll(title, " ", "%20"))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	if err := json.NewDecoder(r2.Body).Decode(&ar); err != nil {
		t.Fatal(err)
	}
	if ar.Revisions != 2 || len(ar.URLs) != 1 || ar.URLs[0] != u2 {
		t.Fatalf("sim/article: %+v", ar)
	}
}

// streamResume opens /v1/stream/verdicts with an explicit
// Last-Event-ID header and returns the raw response (caller closes).
func streamResume(t *testing.T, base string, lastSeq int64) *http.Response {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/stream/verdicts", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", strconv.FormatInt(lastSeq, 10))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestStreamResumeBeyondWindowGone: with a bounded in-memory journal
// window and no file sink, a resume cursor whose successor entries
// were evicted must answer 410 Gone — the regression was a silent
// skip: the stream connected and replayed only what was left, so a
// reconnecting client lost flips without any signal.
func TestStreamResumeBeyondWindowGone(t *testing.T) {
	_, base := newStreamServer(t, func(cfg *Config) { cfg.JournalWindow = 1 })

	watchSampleArticles(t, base, 120)
	last := tickUntilFlips(t, base, 3, 15, 120)
	n := last.Stats.JournalEntries

	resp := streamResume(t, base, 0)
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("resume at 0 past a 1-entry window = %d, want 410 (body: %s)", resp.StatusCode, raw)
	}
	var env struct {
		Error edge.ErrorBody `json:"error"`
	}
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("410 body is not the error envelope: %v (%s)", err, raw)
	}
	if env.Error.Code != "replay_gone" {
		t.Fatalf("410 code = %q, want replay_gone", env.Error.Code)
	}

	// A cursor still inside the window resumes normally...
	ok := streamResume(t, base, int64(n-1))
	defer ok.Body.Close()
	if ok.StatusCode != http.StatusOK {
		t.Fatalf("resume at %d (inside window) = %d, want 200", n-1, ok.StatusCode)
	}
	ch := make(chan sseEvent, 16)
	go readSSE(ok.Body, ch)
	got := collectN(t, ch, 1, 10*time.Second)
	if got[0].id != int64(n) {
		t.Fatalf("in-window resume replayed seq %d, want %d", got[0].id, n)
	}

	// ...and a fresh subscriber with no cursor has no resume contract:
	// it connects fine (lenient retained-history replay).
	fresh, err := http.Get(base + "/v1/stream/verdicts")
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Body.Close()
	if fresh.StatusCode != http.StatusOK {
		t.Fatalf("cursor-less subscribe after eviction = %d, want 200", fresh.StatusCode)
	}
}

// TestStreamResumeAheadOfJournalGone: a client that reconnects with a
// cursor from before a restart to a server whose in-memory journal
// starts over must get 410, naming its cursor and the journal's last
// seq — not a 200 followed by live ids below its cursor, which it would
// take for flips it already holds. A cursor at the last seq resumes.
func TestStreamResumeAheadOfJournalGone(t *testing.T) {
	_, base := newStreamServer(t, nil)

	resp := streamResume(t, base, 500)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("resume at 500 on an empty journal = %d, want 410", resp.StatusCode)
	}
	raw, _ := io.ReadAll(resp.Body)
	var env struct {
		Error edge.ErrorBody `json:"error"`
	}
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("410 body is not the error envelope: %v (%s)", err, raw)
	}
	if env.Error.Code != "cursor_ahead" || !strings.Contains(env.Error.Message, "cursor 500") ||
		!strings.Contains(env.Error.Message, "last seq 0") {
		t.Fatalf("410 error = %+v, want cursor_ahead naming cursor 500 and last seq 0", env.Error)
	}

	ok := streamResume(t, base, 0)
	defer ok.Body.Close()
	if ok.StatusCode != http.StatusOK {
		t.Fatalf("resume at the last seq = %d, want 200", ok.StatusCode)
	}
}

// TestStreamResumeBeyondWindowFromDisk: the same stale cursor against
// a file-backed journal replays the full suffix from disk — every
// evicted seq present, exactly once, in order.
func TestStreamResumeBeyondWindowFromDisk(t *testing.T) {
	jpath := t.TempDir() + "/flips.ndjson"
	_, base := newStreamServer(t, func(cfg *Config) {
		cfg.JournalWindow = 1
		cfg.JournalPath = jpath
	})

	watchSampleArticles(t, base, 120)
	last := tickUntilFlips(t, base, 3, 15, 120)
	n := last.Stats.JournalEntries

	resp := streamResume(t, base, 0)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("disk-backed resume at 0 = %d, want 200 (body: %s)", resp.StatusCode, raw)
	}
	ch := make(chan sseEvent, 1024)
	go readSSE(resp.Body, ch)
	events := collectN(t, ch, n, 10*time.Second)
	for i, ev := range events {
		if ev.id != int64(i+1) {
			t.Fatalf("disk replay event %d: id %d, want %d", i, ev.id, i+1)
		}
		var e monitor.Event
		if err := json.Unmarshal([]byte(ev.data), &e); err != nil {
			t.Fatal(err)
		}
		if e.Seq != ev.id || e.URL == "" {
			t.Fatalf("disk replay event %d malformed: %+v", i, e)
		}
	}
}

// TestBootOverTornJournal: a kill -9 during an append leaves the flip
// journal's last line cut short. The next server over that file must
// boot, and its first flip must take the seq after the last complete
// record — no seq lost, none reused.
func TestBootOverTornJournal(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "flips.ndjson")
	torn := `{"seq":1,"day":1,"date":"","url":"http://a.simtest/1","old":"alive","new":"dead"}` + "\n" +
		`{"seq":2,"day":2,"date":"","url":"http://a.simtest/2","old":"dead","new":"alive"}` + "\n" +
		`{"seq":3,"day":3,"date":"","url":"http://a.simt`
	if err := os.WriteFile(jpath, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}
	s, base := newStreamServer(t, func(cfg *Config) { cfg.JournalPath = jpath })

	watchSampleArticles(t, base, 120)
	tickUntilFlips(t, base, 3, 15, 120)
	fresh := s.jrnl.After(2)
	if len(fresh) == 0 || fresh[0].Seq != 3 || fresh[0].URL == "http://a.simtest/3" {
		t.Fatalf("first flip after the torn boot = %+v, want a new entry at seq 3", fresh)
	}
}
