package fetch

import (
	"context"
	"net/http"
	"strings"
	"testing"
	"time"

	"permadead/internal/simclock"
	"permadead/internal/simweb"
)

func testWorld() *simweb.World {
	w := simweb.NewWorld()
	created := simclock.FromDate(2008, 1, 1)

	ok := w.AddSite("ok.simtest", created)
	ok.AddPage("/page.html", created)

	dead := w.AddSite("dnsdead.simtest", created)
	dead.DNSDiesAt = simclock.FromDate(2020, 1, 1)

	hang := w.AddSite("hang.simtest", created)
	hang.TimeoutFrom = created

	redir := w.AddSite("redir.simtest", created)
	pg := redir.AddPage("/old.html", created)
	pg.MovedAt = created.Add(10)
	pg.NewPath = "/new.html"
	pg.RedirectFrom = created.Add(10)
	redir.AddPage("/new.html", created.Add(10))

	soft := w.AddSite("soft.simtest", created)
	soft.ErrorStyle = simweb.SoftRedirectHome

	geo := w.AddSite("geo.simtest", created)
	geo.GeoBlockedFrom = created

	loop := w.AddSite("loop.simtest", created)
	a := loop.AddPage("/a", created)
	a.MovedAt = created
	a.NewPath = "/b"
	a.RedirectFrom = created
	b := loop.AddPage("/b", created)
	b.MovedAt = created
	b.NewPath = "/a"
	b.RedirectFrom = created

	return w
}

func testClient(w *simweb.World, opts ...Option) *Client {
	return New(simweb.NewTransport(w, simclock.StudyTime), opts...)
}

func TestFetch200(t *testing.T) {
	c := testClient(testWorld())
	res := c.Fetch(context.Background(), "http://ok.simtest/page.html")
	if res.Category != Cat200 {
		t.Fatalf("category = %v, err = %v", res.Category, res.Err)
	}
	if res.InitialStatus != 200 || res.FinalStatus != 200 {
		t.Errorf("statuses: initial=%d final=%d", res.InitialStatus, res.FinalStatus)
	}
	if res.Redirected {
		t.Error("no redirect expected")
	}
	if !strings.Contains(res.Body, "<html>") {
		t.Error("body missing")
	}
	if len(res.Hops) != 1 {
		t.Errorf("hops = %d", len(res.Hops))
	}
}

func TestFetch404(t *testing.T) {
	c := testClient(testWorld())
	res := c.Fetch(context.Background(), "http://ok.simtest/missing.html")
	if res.Category != Cat404 || res.FinalStatus != 404 {
		t.Fatalf("%+v", res)
	}
}

func TestFetchDNSFailure(t *testing.T) {
	c := testClient(testWorld())
	res := c.Fetch(context.Background(), "http://dnsdead.simtest/x")
	if res.Category != CatDNSFailure {
		t.Fatalf("category = %v, err = %v", res.Category, res.Err)
	}
	if res.Err == nil {
		t.Error("expected error")
	}
	res = c.Fetch(context.Background(), "http://neverexisted.simtest/")
	if res.Category != CatDNSFailure {
		t.Fatalf("unknown host category = %v", res.Category)
	}
}

func TestFetchTimeout(t *testing.T) {
	c := testClient(testWorld())
	res := c.Fetch(context.Background(), "http://hang.simtest/")
	if res.Category != CatTimeout {
		t.Fatalf("category = %v, err = %v", res.Category, res.Err)
	}
}

func TestFetchRedirectChain(t *testing.T) {
	c := testClient(testWorld())
	res := c.Fetch(context.Background(), "http://redir.simtest/old.html")
	if res.Category != Cat200 {
		t.Fatalf("category = %v, err = %v", res.Category, res.Err)
	}
	// The paper's initial vs final status distinction (§2.4).
	if res.InitialStatus != 301 {
		t.Errorf("initial status = %d, want 301", res.InitialStatus)
	}
	if res.FinalStatus != 200 {
		t.Errorf("final status = %d, want 200", res.FinalStatus)
	}
	if !res.Redirected {
		t.Error("Redirected should be true")
	}
	if len(res.Hops) != 2 {
		t.Fatalf("hops = %v", res.Hops)
	}
	if !strings.HasSuffix(res.FinalURL, "/new.html") {
		t.Errorf("final URL = %q", res.FinalURL)
	}
}

func TestFetchSoftRedirect(t *testing.T) {
	c := testClient(testWorld())
	res := c.Fetch(context.Background(), "http://soft.simtest/gone/article.html")
	// Redirects home and answers 200: classified 200, the soft-404 case
	// the detector must catch downstream.
	if res.Category != Cat200 || !res.Redirected {
		t.Fatalf("%+v", res)
	}
	if res.InitialStatus != 302 {
		t.Errorf("initial = %d", res.InitialStatus)
	}
}

func TestFetchOther(t *testing.T) {
	c := testClient(testWorld())
	res := c.Fetch(context.Background(), "http://geo.simtest/")
	if res.Category != CatOther || res.FinalStatus != 403 {
		t.Fatalf("%+v", res)
	}
}

func TestFetchRedirectLoop(t *testing.T) {
	c := testClient(testWorld())
	res := c.Fetch(context.Background(), "http://loop.simtest/a")
	if res.Category != CatOther {
		t.Fatalf("loop category = %v", res.Category)
	}
	if res.Err == nil || !strings.Contains(res.Err.Error(), "redirects") {
		t.Errorf("err = %v", res.Err)
	}
}

func TestFetchInvalidURL(t *testing.T) {
	c := testClient(testWorld())
	res := c.Fetch(context.Background(), "http://bad url with spaces/")
	if res.Category != CatOther || res.Err == nil {
		t.Fatalf("%+v", res)
	}
}

func TestFetchContextCancelled(t *testing.T) {
	c := testClient(testWorld())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := c.Fetch(ctx, "http://ok.simtest/page.html")
	if res.Err == nil {
		t.Error("cancelled context should error")
	}
}

func TestCategoryStrings(t *testing.T) {
	want := []string{"DNS Failure", "Timeout", "404", "200", "Other"}
	for i, cat := range Categories {
		if cat.String() != want[i] {
			t.Errorf("category %d = %q, want %q", i, cat.String(), want[i])
		}
	}
	if Category(99).String() != "Unknown" {
		t.Error("unknown category string")
	}
}

func TestWithOptions(t *testing.T) {
	w := testWorld()
	c := New(simweb.NewTransport(w, simclock.StudyTime),
		WithTimeout(5*time.Second),
		WithMaxBody(10),
	)
	res := c.Fetch(context.Background(), "http://ok.simtest/page.html")
	if len(res.Body) > 10 {
		t.Errorf("body length %d exceeds WithMaxBody(10)", len(res.Body))
	}
	if res.Category != Cat200 {
		t.Errorf("category = %v", res.Category)
	}
}

// TestParseRetryAfter covers both header forms RFC 9110 allows. The
// HTTP-date form used to parse silently to 0, which defeated the
// Retrier's Retry-After honoring whenever an origin advertised an
// absolute retry time instead of delay-seconds.
func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2022, 6, 15, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		name string
		v    string
		want time.Duration
	}{
		{"absent", "", 0},
		{"seconds", "120", 120 * time.Second},
		{"seconds with space", " 7 ", 7 * time.Second},
		{"zero seconds", "0", 0},
		{"negative seconds", "-5", 0},
		{"http date ahead", now.Add(90 * time.Second).Format(http.TimeFormat), 90 * time.Second},
		{"http date rfc850", now.Add(time.Hour).Format("Monday, 02-Jan-06 15:04:05 GMT"), time.Hour},
		{"http date asctime", now.Add(30 * time.Second).Format(time.ANSIC), 30 * time.Second},
		{"http date elapsed", now.Add(-time.Minute).Format(http.TimeFormat), 0},
		{"garbage", "soon", 0},
		{"float seconds", "1.5", 0},
	}
	for _, tc := range cases {
		if got := parseRetryAfter(tc.v, now); got != tc.want {
			t.Errorf("%s: parseRetryAfter(%q) = %v, want %v", tc.name, tc.v, got, tc.want)
		}
	}
}

// TestResponseTimeAnchorsOnDateHeader: HTTP-date math must use the
// server's own clock (its Date header) when present, so skew between
// the origin and the client cannot inflate or erase the delay.
func TestResponseTimeAnchorsOnDateHeader(t *testing.T) {
	served := time.Date(2022, 6, 15, 12, 0, 0, 0, time.UTC)
	h := http.Header{}
	h.Set("Date", served.Format(http.TimeFormat))
	if got := responseTime(h); !got.Equal(served) {
		t.Errorf("responseTime with Date header = %v, want %v", got, served)
	}
	// Retry 10 minutes after the server's Date, regardless of local time.
	after := served.Add(10 * time.Minute).Format(http.TimeFormat)
	if got := parseRetryAfter(after, responseTime(h)); got != 10*time.Minute {
		t.Errorf("date-anchored Retry-After = %v, want 10m", got)
	}
	if before := responseTime(http.Header{}); time.Since(before) > time.Minute {
		t.Errorf("responseTime without Date header should be ~now, got %v", before)
	}
}

// parseRetryAfter is retryAfter against a fixed anchor.
func parseRetryAfter(v string, now time.Time) time.Duration {
	return retryAfter(v, func() time.Time { return now })
}

// TestRetryAfterReadsClockOnlyForDates: the anchor — the Date header
// parsed against three layouts, then the wall clock — matters only to
// the HTTP-date form, so a response with no Retry-After (nearly all of
// them) or an integer one must not resolve it.
func TestRetryAfterReadsClockOnlyForDates(t *testing.T) {
	now := time.Date(2022, 6, 15, 12, 0, 0, 0, time.UTC)
	reads := 0
	clock := func() time.Time { reads++; return now }
	for _, tc := range []struct {
		v         string
		want      time.Duration
		wantReads int
	}{
		{"", 0, 0},
		{"120", 120 * time.Second, 0},
		{"-5", 0, 0},
		{"soon", 0, 0},
		{now.Add(90 * time.Second).Format(http.TimeFormat), 90 * time.Second, 1},
	} {
		reads = 0
		if got := retryAfter(tc.v, clock); got != tc.want || reads != tc.wantReads {
			t.Errorf("retryAfter(%q) = %v after %d anchor reads, want %v after %d",
				tc.v, got, reads, tc.want, tc.wantReads)
		}
	}

	// What Fetch runs per hop, on a header-less response: no clock
	// read, no failed time.Parse, so nothing allocated.
	h := http.Header{}
	if n := testing.AllocsPerRun(100, func() {
		retryAfter(h.Get("Retry-After"), func() time.Time { return responseTime(h) })
	}); n != 0 {
		t.Errorf("header-less Retry-After resolution allocates %.0f times, want 0", n)
	}
}

// slowRedirects is a transport whose every hop takes `hop` to answer
// (or until the request's context ends, whichever is first, as a real
// dial would) and then redirects to the next of `chain` hops before a
// final 200. It records whether requests carried a deadline.
type slowRedirects struct {
	hop       time.Duration
	chain     int
	deadlines []bool
}

func (s *slowRedirects) RoundTrip(req *http.Request) (*http.Response, error) {
	_, has := req.Context().Deadline()
	s.deadlines = append(s.deadlines, has)
	select {
	case <-time.After(s.hop):
	case <-req.Context().Done():
		return nil, req.Context().Err()
	}
	resp := &http.Response{
		StatusCode: 200, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: http.Header{}, Body: http.NoBody, Request: req,
	}
	if n := len(s.deadlines); n <= s.chain {
		resp.StatusCode = 302
		resp.Header.Set("Location", "/hop"+strings.Repeat("x", n))
	}
	return resp, nil
}

// TestTimeoutBoundsWholeFetch: WithTimeout(d) is one deadline for the
// redirect chain, not a fresh d per hop. Each hop below takes 0.6·d, so
// a per-hop bound would never fire and the chain would end 200 after
// 3·d; the per-fetch bound fires once, during the second hop.
func TestTimeoutBoundsWholeFetch(t *testing.T) {
	const d = 200 * time.Millisecond
	rt := &slowRedirects{hop: d * 6 / 10, chain: 4}
	start := time.Now()
	res := New(rt, WithTimeout(d)).Fetch(context.Background(), "http://slow.simtest/")
	elapsed := time.Since(start)
	if res.Category != CatTimeout {
		t.Fatalf("category = %v (err %v, hops %d), want Timeout", res.Category, res.Err, len(res.Hops))
	}
	if len(res.Hops) > 1 || len(rt.deadlines) > 2 {
		t.Errorf("%d hops answered, %d sent: the bound restarted per hop", len(res.Hops), len(rt.deadlines))
	}
	if elapsed < d || elapsed > 5*d/2 {
		t.Errorf("timed out after %v, want ≈ %v", elapsed, d)
	}
}

// TestTimeoutZeroSetsNoDeadline: WithTimeout(0) leaves the caller's
// context alone; the default puts a deadline on every hop's request.
func TestTimeoutZeroSetsNoDeadline(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
		want bool
	}{
		{"default 30s", nil, true},
		{"WithTimeout(0)", []Option{WithTimeout(0)}, false},
	} {
		rt := &slowRedirects{chain: 2}
		res := New(rt, tc.opts...).Fetch(context.Background(), "http://slow.simtest/")
		if res.Category != Cat200 || len(res.Hops) != 3 {
			t.Fatalf("%s: category %v, %d hops (err %v)", tc.name, res.Category, len(res.Hops), res.Err)
		}
		for hop, has := range rt.deadlines {
			if has != tc.want {
				t.Errorf("%s: hop %d request has deadline = %v, want %v", tc.name, hop, has, tc.want)
			}
		}
	}
}
