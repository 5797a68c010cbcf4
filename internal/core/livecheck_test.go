package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"permadead/internal/fetch"
)

// liveProbe is a scripted RoundTripper for LiveCheck: it counts round
// trips and tracks how many are in flight, so the fan-out's bound and
// its cancellation are observable without a simulated web. Hosts named
// "dns..." fail DNS, paths ending in "404" answer 404, the rest 200.
type liveProbe struct {
	started, inflight, peak atomic.Int32
	// park holds every request until its context ends; parkURLs holds
	// only the requests for these URLs, and parked counts the held.
	park     bool
	parkURLs map[string]bool
	parked   atomic.Int32
}

func (p *liveProbe) RoundTrip(req *http.Request) (*http.Response, error) {
	p.started.Add(1)
	raise(&p.peak, p.inflight.Add(1))
	defer p.inflight.Add(-1)
	if p.park || p.parkURLs[req.URL.String()] {
		p.parked.Add(1)
		<-req.Context().Done()
		return nil, req.Context().Err()
	}
	if strings.HasPrefix(req.URL.Host, "dns") {
		return nil, &net.OpError{Op: "dial", Err: &net.DNSError{Err: "no such host", Name: req.URL.Host}}
	}
	status := http.StatusOK
	if strings.HasSuffix(req.URL.Path, "404") {
		status = http.StatusNotFound
	}
	return &http.Response{
		StatusCode: status,
		Body:       io.NopCloser(strings.NewReader("a page about link rot")),
		Header:     make(http.Header),
		Request:    req,
	}, nil
}

// liveStudy is a study whose only wired dependency is the live client:
// LiveCheck reads nothing else.
func liveStudy(p *liveProbe, conc, n int) (*Study, *Report) {
	cfg := DefaultConfig()
	cfg.Concurrency = conc
	r := &Report{Records: make([]LinkRecord, n)}
	for i := range r.Records {
		switch i % 3 {
		case 0:
			r.Records[i].URL = fmt.Sprintf("http://live.simtest/page-%d", i)
		case 1:
			r.Records[i].URL = fmt.Sprintf("http://live.simtest/page-%d/404", i)
		default:
			r.Records[i].URL = fmt.Sprintf("http://dns%d.simtest/", i)
		}
	}
	return &Study{Config: cfg, Client: fetch.New(p)}, r
}

// checkLiveAlignment runs LiveCheck over n records on conc workers and
// checks result i belongs to record i.
func checkLiveAlignment(t *testing.T, n, conc int) {
	t.Helper()
	want := []fetch.Category{fetch.Cat200, fetch.Cat404, fetch.CatDNSFailure}
	s, r := liveStudy(&liveProbe{}, conc, n)
	if err := s.LiveCheck(context.Background(), r); err != nil {
		t.Fatalf("n=%d conc=%d: %v", n, conc, err)
	}
	if len(r.LiveResults) != n {
		t.Fatalf("n=%d conc=%d: %d results", n, conc, len(r.LiveResults))
	}
	for i, res := range r.LiveResults {
		if res.URL != r.Records[i].URL || res.Category != want[i%3] {
			t.Errorf("n=%d conc=%d: result[%d] = %s %v, want %s %v",
				n, conc, i, res.URL, res.Category, r.Records[i].URL, want[i%3])
		}
	}
}

// TestLiveCheckResultsLineUpWithRecords: result i belongs to record i
// however the workers interleave.
func TestLiveCheckResultsLineUpWithRecords(t *testing.T) {
	checkLiveAlignment(t, 40, 4)
}

// TestLiveCheckEmptyAndSmall: no records, fewer records than workers
// and a fan-out below one all give one aligned result per record.
func TestLiveCheckEmptyAndSmall(t *testing.T) {
	for _, c := range []struct{ n, conc int }{{0, 8}, {2, 64}, {3, 0}} {
		checkLiveAlignment(t, c.n, c.conc)
	}
}

// TestLiveCheckPreCancelled: a cancelled context makes no round trip.
func TestLiveCheckPreCancelled(t *testing.T) {
	p := &liveProbe{}
	s, r := liveStudy(p, 4, 25)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.LiveCheck(ctx, r); !errors.Is(err, context.Canceled) {
		t.Errorf("LiveCheck = %v, want context.Canceled", err)
	}
	if n := p.started.Load(); n != 0 {
		t.Errorf("%d round trips under a pre-cancelled context", n)
	}
}

// TestLiveCheckCancelledMidRun: with every worker parked in a GET, a
// cancel returns LiveCheck promptly and starts no further GET; the
// in-flight count never exceeded the bound and reached it.
func TestLiveCheckCancelledMidRun(t *testing.T) {
	const n, conc = 40, 3
	p := &liveProbe{park: true}
	s, r := liveStudy(p, conc, n)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.LiveCheck(ctx, r) }()

	deadline := time.Now().Add(5 * time.Second)
	for p.inflight.Load() < conc {
		if time.Now().After(deadline) {
			t.Fatal("the fan-out never reached its bound")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("LiveCheck = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("LiveCheck did not return after cancellation")
	}
	if got := p.started.Load(); got != conc {
		t.Errorf("%d GETs started, want the %d in flight at the cancel", got, conc)
	}
	if got := p.peak.Load(); got != conc {
		t.Errorf("peak in-flight GETs = %d, want %d", got, conc)
	}
}
