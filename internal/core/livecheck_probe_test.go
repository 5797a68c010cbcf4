package core

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"permadead/internal/fetch"
	"permadead/internal/simweb"
	"permadead/internal/softerror"
	"permadead/internal/stats"
	"permadead/internal/worldgen"
)

// liveCheckSequential is LiveCheck as it was before each worker probed
// its own 200: the GETs on the fan-out, then every soft-404 probe in
// one loop on the calling goroutine. LiveCheck is held to it.
func liveCheckSequential(ctx context.Context, s *Study, r *Report) error {
	results := make([]fetch.Result, len(r.Records))
	ParallelFor(len(r.Records), s.Config.Concurrency, func(i int) {
		if ctx.Err() == nil {
			results[i] = s.Client.Fetch(ctx, r.Records[i].URL)
		}
	})
	if err := ctx.Err(); err != nil {
		return err
	}
	r.LiveResults = results

	r.LiveBreakdown = stats.NewBreakdown(
		fetch.CatDNSFailure.String(), fetch.CatTimeout.String(),
		fetch.Cat404.String(), fetch.Cat200.String(), fetch.CatOther.String())

	detector := softerror.NewDetector(s.Client)
	r.SoftVerdicts = make(map[int]softerror.Verdict)
	for i, res := range results {
		r.LiveBreakdown.Add(res.Category.String())
		if res.Category != fetch.Cat200 {
			continue
		}
		r.Num200++
		v := detector.Check(ctx, res.URL, res)
		r.SoftVerdicts[i] = v
		if v.Broken {
			continue
		}
		r.NumFunctional++
		if res.Redirected {
			r.FunctionalViaRedirect++
		}
	}
	return nil
}

var (
	liveUniverseOnce sync.Once
	liveUniverse     *worldgen.Universe
)

// liveStudyAt is a study over the in-memory Scale(0.05) seed-1
// universe at fan-out conc, with its collected records.
func liveStudyAt(t *testing.T, conc int) (*Study, []LinkRecord) {
	t.Helper()
	liveUniverseOnce.Do(func() {
		p := worldgen.DefaultParams().Scale(0.05)
		p.Seed = 1
		liveUniverse = worldgen.Generate(p)
	})
	u := liveUniverse
	cfg := DefaultConfig()
	cfg.SampleSize, cfg.CrawlArticles, cfg.Concurrency = u.Params.SampleSize, 0, conc
	s := &Study{
		Config: cfg,
		Wiki:   u.Wiki,
		Arch:   u.Archive,
		Client: fetch.New(simweb.NewTransport(u.World, cfg.StudyTime)),
		Ranks:  u.World,
	}
	return s, s.Collect()
}

// TestLiveCheckMatchesSequential: probing inside the workers gives the
// sequential probe loop's results, verdicts and counts at every
// fan-out.
func TestLiveCheckMatchesSequential(t *testing.T) {
	for _, conc := range []int{1, 2, 32} {
		s, recs := liveStudyAt(t, conc)
		got, want := &Report{Records: recs}, &Report{Records: recs}
		if err := s.LiveCheck(context.Background(), got); err != nil {
			t.Fatal(err)
		}
		if err := liveCheckSequential(context.Background(), s, want); err != nil {
			t.Fatal(err)
		}
		if want.Num200 == 0 || want.NumFunctional == want.Num200 || want.NumFunctional == 0 {
			t.Fatalf("conc %d: %d links, %d answer 200, %d functional: the probe decides nothing",
				conc, len(recs), want.Num200, want.NumFunctional)
		}
		if !reflect.DeepEqual(got.LiveResults, want.LiveResults) {
			t.Errorf("conc %d: LiveResults differ from the sequential loop's", conc)
		}
		if !reflect.DeepEqual(got.SoftVerdicts, want.SoftVerdicts) {
			t.Errorf("conc %d: SoftVerdicts differ from the sequential loop's", conc)
		}
		if !reflect.DeepEqual(got.LiveBreakdown, want.LiveBreakdown) {
			t.Errorf("conc %d: LiveBreakdown %v, sequential %v", conc, got.LiveBreakdown, want.LiveBreakdown)
		}
		for _, c := range []struct {
			name      string
			got, want int
		}{
			{"Num200", got.Num200, want.Num200},
			{"NumFunctional", got.NumFunctional, want.NumFunctional},
			{"FunctionalViaRedirect", got.FunctionalViaRedirect, want.FunctionalViaRedirect},
		} {
			if c.got != c.want {
				t.Errorf("conc %d: %s = %d, sequential %d", conc, c.name, c.got, c.want)
			}
		}
	}
}

// probeParkingStudy is liveStudy over n records whose soft-404 probes
// park until their context ends; the GETs answer at once.
func probeParkingStudy(conc, n int) (*Study, *Report, *liveProbe) {
	p := &liveProbe{parkURLs: make(map[string]bool)}
	s, r := liveStudy(p, conc, n)
	d := softerror.NewDetector(nil)
	for _, rec := range r.Records {
		p.parkURLs[d.ProbeURLFor(rec.URL)] = true
	}
	return s, r, p
}

// awaitParked waits until at least k probes are parked.
func awaitParked(t *testing.T, p *liveProbe, k int32) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for p.parked.Load() < k {
		if time.Now().After(deadline) {
			t.Fatalf("%d probes parked after 5 s, want %d", p.parked.Load(), k)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLiveCheckCancelledDuringProbe: a cancel while a soft-404 probe
// is in flight returns the context error, not a report in which the
// unprobed 200s count as functional.
func TestLiveCheckCancelledDuringProbe(t *testing.T) {
	const n, conc = 40, 3
	s, r, p := probeParkingStudy(conc, n)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.LiveCheck(ctx, r) }()

	awaitParked(t, p, 1)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("LiveCheck = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("LiveCheck did not return after cancellation")
	}
	if got := p.peak.Load(); got > conc {
		t.Errorf("peak in-flight requests = %d, over the bound %d", got, conc)
	}
}

// TestLiveCheckProbesShareTheBound: the probes run on the fan-out, so
// with every probe parked all conc workers hold one, and GETs and
// probes together never exceed conc in flight.
func TestLiveCheckProbesShareTheBound(t *testing.T) {
	const n, conc = 40, 3
	s, r, p := probeParkingStudy(conc, n)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.LiveCheck(ctx, r) }()

	awaitParked(t, p, conc)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Errorf("LiveCheck = %v, want context.Canceled", err)
	}
	if got := p.peak.Load(); got != conc {
		t.Errorf("peak in-flight requests = %d, want the bound %d", got, conc)
	}
}
