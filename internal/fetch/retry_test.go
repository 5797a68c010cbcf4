package fetch

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"permadead/internal/simclock"
	"permadead/internal/simweb"
)

// The annotation headers must match simweb's, or retries would silently
// re-roll nothing.
func TestSimHeadersMatchSimweb(t *testing.T) {
	if simDayHeader != simweb.DayHeader {
		t.Errorf("simDayHeader = %q, simweb.DayHeader = %q", simDayHeader, simweb.DayHeader)
	}
	if simAttemptHeader != simweb.AttemptHeader {
		t.Errorf("simAttemptHeader = %q, simweb.AttemptHeader = %q", simAttemptHeader, simweb.AttemptHeader)
	}
}

func TestTransient(t *testing.T) {
	for _, tc := range []struct {
		res  Result
		want bool
	}{
		{Result{Category: CatDNSFailure}, true},
		{Result{Category: CatTimeout}, true},
		{Result{Category: CatOther, FinalStatus: 429}, true},
		{Result{Category: CatOther, FinalStatus: 503}, true},
		{Result{Category: CatOther, FinalStatus: 500}, true},
		{Result{Category: Cat200, FinalStatus: 200}, false},
		{Result{Category: Cat404, FinalStatus: 404}, false},
		{Result{Category: CatOther, FinalStatus: 403}, false},
	} {
		if got := Transient(tc.res); got != tc.want {
			t.Errorf("Transient(%v/%d) = %v, want %v", tc.res.Category, tc.res.FinalStatus, got, tc.want)
		}
	}
}

// flakyWorld builds a world whose page is healthy but sits behind one
// fault window with the given mode/rate covering StudyTime only
// (StudyTime-5 .. StudyTime+5).
func flakyWorld(mode simweb.FaultMode, rate float64, retryAfterSec int, seed uint64) *simweb.World {
	w := simweb.NewWorld()
	created := simclock.FromDate(2008, 1, 1)
	s := w.AddSite("flaky.simtest", created)
	s.AddPage("/page.html", created)
	s.Faults = []simweb.FaultWindow{{
		From:          simclock.StudyTime.Add(-5),
		To:            simclock.StudyTime.Add(5),
		Mode:          mode,
		Rate:          rate,
		RetryAfterSec: retryAfterSec,
		Seed:          seed,
	}}
	return w
}

const flakyURL = "http://flaky.simtest/page.html"

// seedFiringOnlyOnAttempt0 finds a window seed where attempt 0 faults
// at StudyTime but attempt 1 does not, so a single retry rescues the
// link. Fault decisions are pure hashes, so probing the world is exact.
func seedFiringOnlyOnAttempt0(t *testing.T, rate float64) uint64 {
	t.Helper()
	for seed := uint64(0); seed < 10000; seed++ {
		w := flakyWorld(simweb.FaultServerBusy, rate, 0, seed)
		first := w.GetAttempt(flakyURL, simclock.StudyTime, 0)
		second := w.GetAttempt(flakyURL, simclock.StudyTime, 1)
		if first.Status == 503 && second.Status == 200 {
			return seed
		}
	}
	t.Fatal("no seed fires on attempt 0 only")
	return 0
}

func TestRetrierRescuesByRetry(t *testing.T) {
	seed := seedFiringOnlyOnAttempt0(t, 0.5)
	w := flakyWorld(simweb.FaultServerBusy, 0.5, 0, seed)
	c := New(simweb.NewTransport(w, simclock.StudyTime))

	// The bare client (one GET) sees the fault.
	if res := c.Fetch(context.Background(), flakyURL); res.FinalStatus != 503 {
		t.Fatalf("bare client: %+v", res)
	}

	r := NewRetrier(c, DefaultRetryPolicy())
	r.Day = int(simclock.StudyTime)
	r.Sleep = NopSleep
	res := r.Fetch(context.Background(), flakyURL)
	if res.Category != Cat200 {
		t.Fatalf("retrier: %+v", res)
	}
	if res.Attempts != 2 {
		t.Errorf("attempts = %d, want 2", res.Attempts)
	}
	st := r.Stats.Snapshot()
	if st.Attempts != 2 || st.Retries != 1 || st.RescuedByRetry != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// recordingSleep captures requested backoff delays.
type recordingSleep struct {
	mu     sync.Mutex
	delays []time.Duration
}

func (rs *recordingSleep) sleep(ctx context.Context, d time.Duration) error {
	rs.mu.Lock()
	rs.delays = append(rs.delays, d)
	rs.mu.Unlock()
	return ctx.Err()
}

func TestRetrierBackoffExponentialWithJitter(t *testing.T) {
	// Rate 1: every attempt faults, so the retrier walks the full
	// backoff ladder. Retry-After honoring is off to expose it.
	w := flakyWorld(simweb.FaultServerBusy, 1, 0, 7)
	c := New(simweb.NewTransport(w, simclock.StudyTime))
	pol := RetryPolicy{
		MaxAttempts: 4,
		BaseBackoff: time.Second,
		MaxBackoff:  4 * time.Second,
		JitterSeed:  42,
	}

	run := func() []time.Duration {
		r := NewRetrier(c, pol)
		r.Day = int(simclock.StudyTime)
		rs := &recordingSleep{}
		r.Sleep = rs.sleep
		res := r.Fetch(context.Background(), flakyURL)
		if res.FinalStatus != 503 || res.Attempts != 4 {
			t.Fatalf("%+v", res)
		}
		return rs.delays
	}

	delays := run()
	if len(delays) != 3 {
		t.Fatalf("delays = %v", delays)
	}
	// Half-jitter keeps each delay within [base/2, base] of the
	// exponential ladder 1s, 2s, 4s (capped).
	for i, base := range []time.Duration{time.Second, 2 * time.Second, 4 * time.Second} {
		if delays[i] < base/2 || delays[i] > base {
			t.Errorf("delay[%d] = %v, want in [%v, %v]", i, delays[i], base/2, base)
		}
	}
	// Same seed, same schedule.
	again := run()
	for i := range delays {
		if delays[i] != again[i] {
			t.Errorf("jitter not deterministic: %v vs %v", delays, again)
		}
	}
}

func TestRetrierHonorsRetryAfter(t *testing.T) {
	w := flakyWorld(simweb.FaultRateLimit, 1, 7, 3)
	c := New(simweb.NewTransport(w, simclock.StudyTime))
	pol := RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Second, RespectRetryAfter: true}
	r := NewRetrier(c, pol)
	r.Day = int(simclock.StudyTime)
	rs := &recordingSleep{}
	r.Sleep = rs.sleep

	res := r.Fetch(context.Background(), flakyURL)
	if res.FinalStatus != 429 || res.RetryAfter != 7*time.Second {
		t.Fatalf("%+v", res)
	}
	if len(rs.delays) != 1 || rs.delays[0] != 7*time.Second {
		t.Errorf("delays = %v, want [7s]", rs.delays)
	}
	if got := r.Stats.RetryAfterHonored.Load(); got != 1 {
		t.Errorf("RetryAfterHonored = %d", got)
	}
}

func TestRetrierBudgetExhaustion(t *testing.T) {
	w := flakyWorld(simweb.FaultServerBusy, 1, 0, 7)
	c := New(simweb.NewTransport(w, simclock.StudyTime))
	pol := RetryPolicy{
		MaxAttempts: 5,
		BaseBackoff: 10 * time.Second,
		Budget:      12 * time.Second,
		JitterSeed:  1,
	}
	r := NewRetrier(c, pol)
	r.Day = int(simclock.StudyTime)
	r.Sleep = NopSleep

	res := r.Fetch(context.Background(), flakyURL)
	if res.FinalStatus != 503 {
		t.Fatalf("%+v", res)
	}
	// First delay is in [5s, 10s] (fits 12s); the doubled second delay
	// in [10s, 20s] cannot fit what remains, so the link is abandoned
	// after at most 3 of the 5 allowed attempts.
	if res.Attempts >= 5 {
		t.Errorf("attempts = %d, budget never triggered", res.Attempts)
	}
	if got := r.Stats.BudgetExhausted.Load(); got != 1 {
		t.Errorf("BudgetExhausted = %d", got)
	}
}

func TestRetrierConfirmationRecheck(t *testing.T) {
	// Rate 1 over StudyTime-5..StudyTime+5: every attempt inside the
	// window faults, but a recheck 30 sim-days later escapes it.
	w := flakyWorld(simweb.FaultServerBusy, 1, 0, 7)
	c := New(simweb.NewTransport(w, simclock.StudyTime))
	r := NewRetrier(c, ConfirmationPolicy(3, 30))
	r.Day = int(simclock.StudyTime)
	r.Sleep = NopSleep

	res := r.Fetch(context.Background(), flakyURL)
	if res.Category != Cat200 {
		t.Fatalf("%+v", res)
	}
	st := r.Stats.Snapshot()
	if st.Checks != 2 || st.Rechecks != 1 || st.RescuedByRecheck != 1 {
		t.Errorf("stats = %+v", st)
	}
	// Check 1 burns all 3 attempts inside the window; check 2 succeeds
	// on its first fetch.
	if res.Attempts != 4 {
		t.Errorf("attempts = %d, want 4", res.Attempts)
	}

	// Without a day to advance, confirmation cannot escape the window.
	r2 := NewRetrier(c, ConfirmationPolicy(3, 30))
	r2.Sleep = NopSleep
	if res := r2.Fetch(context.Background(), flakyURL); res.FinalStatus != 503 {
		t.Errorf("dayless confirmation: %+v", res)
	}
}

func TestRetrierDefaultPolicyMatchesBareClient(t *testing.T) {
	// SingleGET with no day annotates nothing: results are identical to
	// the bare Client's, field for field (modulo the Attempts counter).
	w := testWorld()
	c := testClient(w)
	r := NewRetrier(c, SingleGET())
	for _, url := range []string{
		"http://ok.simtest/page.html",
		"http://dnsdead.simtest/x",
		"http://hang.simtest/",
		"http://redir.simtest/old.html",
	} {
		bare := c.Fetch(context.Background(), url)
		res := r.Fetch(context.Background(), url)
		if res.Attempts != 1 {
			t.Errorf("%s: attempts = %d", url, res.Attempts)
		}
		res.Attempts = bare.Attempts
		if res.Category != bare.Category || res.FinalStatus != bare.FinalStatus ||
			res.FinalURL != bare.FinalURL || res.Body != bare.Body {
			t.Errorf("%s: retrier %+v != bare %+v", url, res, bare)
		}
	}
	if h := r.annotate(NoDay, 0); h != nil {
		t.Errorf("annotate(NoDay, 0) = %v, want nil", h)
	}
}

func TestRetrierFetchCancellationMidRetry(t *testing.T) {
	w := flakyWorld(simweb.FaultServerBusy, 1, 0, 7)
	c := New(simweb.NewTransport(w, simclock.StudyTime))
	r := NewRetrier(c, RetryPolicy{MaxAttempts: 100, BaseBackoff: time.Millisecond})
	r.Day = int(simclock.StudyTime)

	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	r.Sleep = func(ctx context.Context, _ time.Duration) error {
		// Cancel from inside the first backoff — mid-retry.
		once.Do(cancel)
		return ctx.Err()
	}

	done := make(chan Result, 1)
	go func() { done <- r.Fetch(ctx, flakyURL) }()
	select {
	case res := <-done:
		if res.URL != flakyURL {
			t.Errorf("result URL = %q", res.URL)
		}
		if res.Attempts < 1 || res.Attempts >= 100 {
			t.Errorf("attempts = %d: want the retries to stop at the cancelled backoff", res.Attempts)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Fetch did not return after cancellation")
	}
}

// errBody errors partway through the body read.
type errBody struct {
	data io.Reader
	err  error
}

func (b *errBody) Read(p []byte) (int, error) {
	n, err := b.data.Read(p)
	if err == io.EOF {
		return n, b.err
	}
	return n, err
}
func (b *errBody) Close() error { return nil }

// errBodyTransport answers every request 200 with a body that dies
// mid-read.
type errBodyTransport struct{ err error }

func (t *errBodyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	return &http.Response{
		Status:     "200 OK",
		StatusCode: 200,
		Proto:      "HTTP/1.1",
		ProtoMajor: 1, ProtoMinor: 1,
		Header:  http.Header{"Content-Type": []string{"text/html"}},
		Body:    &errBody{data: strings.NewReader("<html>partial"), err: t.err},
		Request: req,
	}, nil
}

func TestBodyReadErrorPropagates(t *testing.T) {
	// A transport error mid-body must not classify as a clean 200.
	wantErr := errors.New("connection reset by peer")
	c := New(&errBodyTransport{err: wantErr})
	res := c.Fetch(context.Background(), "http://reset.simtest/")
	if res.Err == nil || !errors.Is(res.Err, wantErr) {
		t.Fatalf("err = %v", res.Err)
	}
	if res.Category != CatOther {
		t.Errorf("category = %v, want Other", res.Category)
	}
	if res.Body != "<html>partial" {
		t.Errorf("body = %q", res.Body)
	}

	// A deadline mid-body is a Timeout, the paper's category for it.
	c = New(&errBodyTransport{err: context.DeadlineExceeded})
	res = c.Fetch(context.Background(), "http://reset.simtest/")
	if res.Category != CatTimeout {
		t.Errorf("deadline category = %v, want Timeout", res.Category)
	}
}

// TestJitterFracGolden pins the backoff jitter of a few (seed, url,
// try) triples, bit for bit, to the values its hand-written splitmix
// finalizer gave before it called hashx.
func TestJitterFracGolden(t *testing.T) {
	for _, c := range []struct {
		seed uint64
		url  string
		try  int
		want float64
	}{
		{0, "", 0, 0x1.c4415072f63b9p-01},
		{0, "http://a.simtest/x", 0, 0x1.f6bf02d2eba4p-01},
		{1, "http://a.simtest/x", 1, 0x1.23b46b076b7fp-04},
		{42, "http://example.simtest/dir/page.html?x=1", 3, 0x1.8a5f77accd5cap-01},
		{18446744073709551615, "http://b.simtest/", 7, 0x1.204cae32848c6p-02},
		{7, "http://b.simtest/", -1, 0x1.95bb9631db551p-01},
	} {
		if got := jitterFrac(c.seed, c.url, c.try); got != c.want {
			t.Errorf("jitterFrac(%d, %q, %d) = %x, want %x", c.seed, c.url, c.try, got, c.want)
		}
	}
}
