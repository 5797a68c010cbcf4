package simweb

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"permadead/internal/simclock"
)

func serverWorld() *World {
	w := NewWorld()
	created := day(2008, 1, 1)
	s := w.AddSite("srv.simtest", created)
	s.AddPage("/ok.html", created)
	pg := s.AddPage("/moved.html", created)
	pg.MovedAt = created.Add(10)
	pg.NewPath = "/target.html"
	pg.RedirectFrom = created.Add(10)
	s.AddPage("/target.html", created.Add(10))

	dead := w.AddSite("dead.simtest", created)
	dead.DNSDiesAt = created.Add(5)

	hang := w.AddSite("hang.simtest", created)
	hang.TimeoutFrom = created
	return w
}

func startServer(t *testing.T, w *World) (*Server, *http.Client) {
	t.Helper()
	srv := NewServer(w, simclock.StudyTime)
	srv.TimeoutHang = 500 * time.Millisecond
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	client := &http.Client{
		Transport: srv.Transport(100 * time.Millisecond),
		Timeout:   2 * time.Second,
	}
	return srv, client
}

func TestServerServesPages(t *testing.T) {
	srv, client := startServer(t, serverWorld())
	if srv.HTTPAddr() == "" || srv.HTTPSAddr() == "" {
		t.Fatal("listeners missing")
	}
	resp, err := client.Get("http://srv.simtest/ok.html")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), "<html>") {
		t.Errorf("status %d body %q", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/html") {
		t.Errorf("content type %q", ct)
	}
	// 404 for missing pages.
	resp2, err := client.Get("http://srv.simtest/nope.html")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != 404 {
		t.Errorf("missing page status %d", resp2.StatusCode)
	}
}

func TestServerRedirects(t *testing.T) {
	_, client := startServer(t, serverWorld())
	// Do not follow redirects: inspect the Location header.
	client.CheckRedirect = func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}
	resp, err := client.Get("http://srv.simtest/moved.html")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 301 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	loc := resp.Header.Get("Location")
	if !strings.HasSuffix(loc, "/target.html") || !strings.HasPrefix(loc, "http://srv.simtest") {
		t.Errorf("location %q", loc)
	}
}

func TestServerTLS(t *testing.T) {
	_, client := startServer(t, serverWorld())
	resp, err := client.Get("https://srv.simtest/ok.html")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("https status %d", resp.StatusCode)
	}
}

func TestServerDNSFailureFromDialer(t *testing.T) {
	_, client := startServer(t, serverWorld())
	_, err := client.Get("http://dead.simtest/x")
	if err == nil {
		t.Fatal("expected DNS error")
	}
	var dnsErr *net.DNSError
	if !errors.As(err, &dnsErr) {
		t.Errorf("error %v is not a DNSError", err)
	}
}

func TestServerTimeoutFromDialer(t *testing.T) {
	_, client := startServer(t, serverWorld())
	start := time.Now()
	_, err := client.Get("http://hang.simtest/")
	if err == nil {
		t.Fatal("expected timeout")
	}
	var netErr net.Error
	if !errors.As(err, &netErr) || !netErr.Timeout() {
		t.Errorf("error %v is not a timeout", err)
	}
	if time.Since(start) > time.Second {
		t.Errorf("dial timeout took %v", time.Since(start))
	}
}

func TestServerDayHeaderOverride(t *testing.T) {
	_, client := startServer(t, serverWorld())
	// Before the move, /moved.html serves 200 directly.
	req, _ := http.NewRequest(http.MethodGet, "http://srv.simtest/moved.html", nil)
	req.Header.Set(DayHeader, strconv.Itoa(int(day(2008, 1, 5))))
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("pre-move status %d", resp.StatusCode)
	}
}

func TestServerHEADHasNoBody(t *testing.T) {
	_, client := startServer(t, serverWorld())
	resp, err := client.Head("http://srv.simtest/ok.html")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if len(body) != 0 {
		t.Errorf("HEAD returned %d body bytes", len(body))
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv := NewServer(serverWorld(), simclock.StudyTime)
	// Close before Start is a no-op.
	if err := srv.Close(); err != nil {
		t.Errorf("close before start: %v", err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
}

func TestTransportRoundTripDirect(t *testing.T) {
	w := serverWorld()
	tr := NewTransport(w, simclock.StudyTime)
	client := tr.Client()

	resp, err := client.Get("http://srv.simtest/ok.html")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || len(body) == 0 {
		t.Errorf("status %d, %d bytes", resp.StatusCode, len(body))
	}
	if resp.ContentLength != int64(len(body)) {
		t.Errorf("content length %d != %d", resp.ContentLength, len(body))
	}

	// Redirect hop carries an absolute Location.
	req, _ := http.NewRequest(http.MethodGet, "http://srv.simtest/moved.html", nil)
	raw, err := tr.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	raw.Body.Close()
	if raw.StatusCode != 301 || !strings.HasPrefix(raw.Header.Get("Location"), "http://srv.simtest/") {
		t.Errorf("round trip: %d %q", raw.StatusCode, raw.Header.Get("Location"))
	}

	// Bad day header is rejected.
	req2, _ := http.NewRequest(http.MethodGet, "http://srv.simtest/ok.html", nil)
	req2.Header.Set(DayHeader, "not-a-number")
	if _, err := tr.RoundTrip(req2); err == nil {
		t.Error("bad day header should error")
	}

	// Valid day header shifts time.
	req3, _ := http.NewRequest(http.MethodGet, "http://srv.simtest/moved.html", nil)
	req3.Header.Set(DayHeader, strconv.Itoa(int(day(2008, 1, 5))))
	resp3, err := tr.RoundTrip(req3)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != 200 {
		t.Errorf("day override status %d", resp3.StatusCode)
	}

	// Timeout error satisfies net.Error.
	req4, _ := http.NewRequest(http.MethodGet, "http://hang.simtest/", nil)
	_, err = tr.RoundTrip(req4)
	var netErr net.Error
	if !errors.As(err, &netErr) || !netErr.Timeout() {
		t.Errorf("timeout error = %v", err)
	}
	if netErr.Error() == "" || !netErr.Temporary() {
		t.Error("timeout error details")
	}

	// Cancelled context short-circuits.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req5, _ := http.NewRequestWithContext(ctx, http.MethodGet, "http://srv.simtest/ok.html", nil)
	if _, err := tr.RoundTrip(req5); err == nil {
		t.Error("cancelled context should error")
	}
}

func TestErrorStyleStrings(t *testing.T) {
	want := map[ErrorStyle]string{
		Hard404:          "hard404",
		SoftRedirectHome: "soft-redirect-home",
		Soft200:          "soft200",
		LoginRedirect:    "login-redirect",
		ErrorStyle(99):   "unknown",
	}
	for style, str := range want {
		if style.String() != str {
			t.Errorf("style %d = %q, want %q", style, style.String(), str)
		}
	}
}

func TestWorldRank(t *testing.T) {
	w := serverWorld()
	w.Site("srv.simtest").Rank = 1234
	if r, ok := w.Rank("srv.simtest"); !ok || r != 1234 {
		t.Errorf("rank = %d, %v", r, ok)
	}
	if _, ok := w.Rank("nope.simtest"); ok {
		t.Error("unknown host should have no rank")
	}
	if _, ok := w.Rank("dead.simtest"); ok {
		t.Error("zero rank should report false")
	}
}

func TestCustomLoginPath(t *testing.T) {
	w := NewWorld()
	s := w.AddSite("lp.simtest", 0)
	s.ErrorStyle = LoginRedirect
	s.LoginPath = "/accounts/signin"
	res := w.Get("http://lp.simtest/private", simclock.StudyTime)
	if res.Status != 302 || res.Location != "/accounts/signin" {
		t.Errorf("custom login path: %+v", res)
	}
}
