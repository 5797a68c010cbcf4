package federation

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"permadead/internal/archive"
	"permadead/internal/simclock"
)

func d(n int) simclock.Day { return simclock.Day(n) }

func snap(url string, day, status int) archive.Snapshot {
	return archive.Snapshot{URL: url, Day: d(day), InitialStatus: status, FinalStatus: status}
}

func redirectSnap(url string, day int, to string) archive.Snapshot {
	return archive.Snapshot{URL: url, Day: d(day), InitialStatus: 302, FinalStatus: 200, RedirectTo: to}
}

// testBase builds a base archive with a few URLs spanning usable,
// redirect, and error captures plus one slow-lookup URL.
func testBase() *archive.Archive {
	a := archive.New()
	a.Add(snap("http://alive.simtest/p", 40, 200))
	a.Add(snap("http://alive.simtest/p", 90, 200))
	a.Add(redirectSnap("http://moved.simtest/p", 55, "http://moved.simtest/new"))
	a.Add(snap("http://moved.simtest/p", 70, 200))
	a.Add(snap("http://errors.simtest/p", 30, 404))
	a.Add(snap("http://errors.simtest/p", 60, 503))
	a.Add(snap("http://errors.simtest/p", 85, 200))
	a.Add(snap("http://slow.simtest/p", 45, 200))
	a.SetLookupLatency("http://slow.simtest/p", 10*time.Second)
	return a
}

func testURLs() []string {
	return []string{
		"http://alive.simtest/p",
		"http://moved.simtest/p",
		"http://errors.simtest/p",
		"http://slow.simtest/p",
		"http://nowhere.simtest/p",
	}
}

// TestSingleMemberDifferential drives the default single-member
// federation and the bare archive with the same queries — concurrently,
// so -race also proves the read path is data-race free — and requires
// identical results from every read surface. This is the acceptance
// bar: federation defaults off reproduce the paper's pipeline exactly.
func TestSingleMemberDifferential(t *testing.T) {
	base := testBase()
	fed, err := New(base, DefaultManifest())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, url := range testURLs() {
				if got, want := fed.Snapshots(url), base.Snapshots(url); !reflect.DeepEqual(got, want) {
					t.Errorf("Snapshots(%s) = %+v, want %+v", url, got, want)
				}
				for _, day := range []int{0, 40, 60, 100} {
					gs, gok := fed.FirstAfter(url, d(day))
					ws, wok := base.FirstAfter(url, d(day))
					if gok != wok || gs != ws {
						t.Errorf("FirstAfter(%s, %d) = %+v/%v, want %+v/%v", url, day, gs, gok, ws, wok)
					}

					q := archive.AvailabilityQuery{
						URL: url, Want: d(day), Accept: archive.AcceptUsable,
						Timeout: time.Second,
					}
					fres, ferr := fed.Query(context.Background(), q)
					bsnap, bok, berr := base.Query(q)
					if fres.Found != bok || fres.Snapshot != bsnap {
						t.Errorf("Query(%s, %d) = %+v, want %+v/%v", url, day, fres, bsnap, bok)
					}
					if (ferr == nil) != (berr == nil) {
						t.Errorf("Query(%s, %d) err = %v, want %v", url, day, ferr, berr)
					}
					// With one member the cost is the bare lookup's.
					if fres.Found && fres.Elapsed != base.LookupLatency(url) {
						t.Errorf("Query(%s) elapsed = %v, want %v", url, fres.Elapsed, base.LookupLatency(url))
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if s := fed.Stats(); s.HedgesFired != 0 {
		t.Errorf("single-member federation hedged: %+v", s)
	}
}

// skewedManifest is a 3-member federation exercising coverage
// thinning, retention policies, and explicit latency models.
func skewedManifest() Manifest {
	return Manifest{
		BudgetMS:      2000,
		HedgeFraction: 0.25,
		Members: []MemberSpec{
			{Name: "wayback"},
			{Name: "archive.today", Coverage: 0.6, Policy: PolicyDrop3xx, LatencyMS: 40, JitterMS: 20, Seed: 7},
			{Name: "memento.mirror", Coverage: 0.4, Policy: PolicyDropErrors, LatencyMS: 60, JitterMS: 30, Seed: 11},
		},
	}
}

func TestMemberViewRespectsPolicyAndCoverage(t *testing.T) {
	base := testBase()
	fed, err := New(base, skewedManifest())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range fed.Members()[1:] {
		for _, url := range testURLs() {
			for _, s := range m.Snapshots(url) {
				if !m.Spec.Policy.Keeps(s) {
					t.Errorf("%s retained policy-dropped snapshot %+v", m.Spec.Name, s)
				}
			}
		}
	}
	// Views are deterministic: two federations over the same base and
	// manifest see identical member slices.
	fed2, _ := New(base, skewedManifest())
	for i, m := range fed.Members() {
		for _, url := range testURLs() {
			if !reflect.DeepEqual(m.Snapshots(url), fed2.Members()[i].Snapshots(url)) {
				t.Errorf("member %s view not deterministic for %s", m.Spec.Name, url)
			}
		}
	}
}

// TestMergedSnapshotsGolden pins the attributed k-way merge: output is
// Day-ascending with ties broken by member priority then capture
// order, identical across repeated runs.
func TestMergedSnapshotsGolden(t *testing.T) {
	base := archive.New()
	const url = "http://merge.simtest/p"
	base.Add(snap(url, 10, 200))
	base.Add(snap(url, 10, 404))
	base.Add(snap(url, 20, 200))
	base.Add(redirectSnap(url, 20, "http://merge.simtest/new"))
	base.Add(snap(url, 30, 500))
	m := Manifest{Members: []MemberSpec{
		{Name: "a"},                           // everything
		{Name: "b", Policy: PolicyDrop3xx},    // drops the redirect
		{Name: "c", Policy: PolicyDropErrors}, // drops 404/500
	}}
	fed, err := New(base, m)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, row := range fed.MergedSnapshots(url) {
		got = append(got, fmt.Sprintf("%d/%s/%d", row.Snapshot.Day, row.Member, row.Snapshot.InitialStatus))
	}
	want := []string{
		"10/a/200", "10/a/404", // member a, capture order
		"10/b/200", "10/b/404",
		"10/c/200",
		"20/a/200", "20/a/302",
		"20/b/200",
		"20/c/200", "20/c/302",
		"30/a/500", "30/b/500",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("merged listing:\n got %v\nwant %v", got, want)
	}
	for i := 0; i < 10; i++ {
		var again []string
		for _, row := range fed.MergedSnapshots(url) {
			again = append(again, fmt.Sprintf("%d/%s/%d", row.Snapshot.Day, row.Member, row.Snapshot.InitialStatus))
		}
		if !reflect.DeepEqual(again, got) {
			t.Fatalf("merge not deterministic on run %d", i)
		}
	}
}

// TestHedgedQueryRace exercises the hedge state machine: a slow
// primary makes the hedge fire, a fast secondary wins, the primary's
// copy never surfaces, and the partial-coverage timeout is reported.
func TestHedgedQueryRace(t *testing.T) {
	base := testBase()
	fed, err := New(base, Manifest{
		BudgetMS:      1000,
		HedgeFraction: 0.25,
		Members: []MemberSpec{
			{Name: "wayback"},                       // inherits 10s lookup for slow.simtest
			{Name: "fast.mirror", LatencyMS: 50},    // answers quickly
			{Name: "slower.mirror", LatencyMS: 600}, // within budget, loses, is cancelled
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, qerr := fed.Query(context.Background(), archive.AvailabilityQuery{
		URL: "http://slow.simtest/p", Want: d(45), Accept: archive.AcceptUsable,
	})
	if qerr != nil || !res.Found {
		t.Fatalf("query: %+v %v", res, qerr)
	}
	if res.Member != "fast.mirror" || !res.HedgeFired || !res.HedgeWin {
		t.Errorf("hedge race outcome = %+v", res)
	}
	// Hedge fires at 250ms; the winner completes at 250+50 = 300ms.
	if res.Elapsed != 300*time.Millisecond {
		t.Errorf("elapsed = %v, want 300ms", res.Elapsed)
	}
	// The primary can never answer within the budget: that is a
	// surfaced timeout, not a silent cancellation.
	if len(res.MemberErrors) != 1 || res.MemberErrors[0].Member != "wayback" {
		t.Errorf("primary timeout not surfaced: %+v", res.MemberErrors)
	}
	s := fed.Stats()
	if s.HedgesFired != 1 || s.HedgeWins != 1 {
		t.Errorf("stats = %+v", s)
	}
	// The 900ms member was in flight when the winner answered.
	if s.LosersCancelled == 0 {
		t.Errorf("no loser cancellation recorded: %+v", s)
	}
}

// TestDownMemberDegrades flips members down: queries keep answering
// from the survivors and report the downed member as degraded
// coverage; with every member down the lookup fails without a hit.
func TestDownMemberDegrades(t *testing.T) {
	base := testBase()
	// A full-coverage mirror guarantees the survivors can answer.
	fed, err := New(base, Manifest{
		BudgetMS:      2000,
		HedgeFraction: 0.25,
		Members: []MemberSpec{
			{Name: "wayback"},
			{Name: "mirror", LatencyMS: 40},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	fed.Member("wayback").SetDown(true)
	res, qerr := fed.Query(context.Background(), archive.AvailabilityQuery{
		URL: "http://alive.simtest/p", Want: d(40), Accept: archive.AcceptUsable,
	})
	if qerr != nil || !res.Found {
		t.Fatalf("degraded query: %+v %v", res, qerr)
	}
	if res.Member == "wayback" {
		t.Errorf("down member answered: %+v", res)
	}
	found := false
	for _, me := range res.MemberErrors {
		if me.Member == "wayback" && me.Err == ErrMemberDown {
			found = true
		}
	}
	if !found {
		t.Errorf("down member not reported: %+v", res.MemberErrors)
	}
	// The union read view also drops the downed member's captures.
	if snaps := fed.Snapshots("http://moved.simtest/p"); len(snaps) == 0 {
		t.Log("union view empty under degraded coverage (acceptable for thin members)")
	}
	for _, m := range fed.Members() {
		m.SetDown(true)
	}
	if res, _ := fed.Query(context.Background(), archive.AvailabilityQuery{
		URL: "http://alive.simtest/p", Want: d(40), Accept: archive.AcceptUsable,
	}); res.Found {
		t.Errorf("all-down federation found a copy: %+v", res)
	}
}

func TestManifestValidate(t *testing.T) {
	cases := []struct {
		name string
		m    Manifest
		ok   bool
	}{
		{"default", DefaultManifest(), true},
		{"skewed", skewedManifest(), true},
		{"empty", Manifest{}, false},
		{"dup names", Manifest{Members: []MemberSpec{{Name: "a"}, {Name: "a"}}}, false},
		{"unnamed", Manifest{Members: []MemberSpec{{}}}, false},
		{"bad policy", Manifest{Members: []MemberSpec{{Name: "a", Policy: "lru"}}}, false},
		{"bad hedge", Manifest{HedgeFraction: 1.5, Members: []MemberSpec{{Name: "a"}}}, false},
		{"negative budget", Manifest{BudgetMS: -1, Members: []MemberSpec{{Name: "a"}}}, false},
	}
	for _, c := range cases {
		if err := c.m.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestUsableGain(t *testing.T) {
	base := archive.New()
	// A near-zero-coverage primary holds (almost surely) nothing, so
	// the keep-all secondary supplies the usable copies — pure gain.
	base.Add(redirectSnap("http://gains.simtest/p", 50, "http://gains.simtest/new"))
	base.Add(snap("http://gains.simtest/p", 50, 200))
	base.Add(snap("http://plain.simtest/p", 60, 200))
	fed, err := New(base, Manifest{Members: []MemberSpec{
		{Name: "primary", Policy: PolicyDropErrors, Coverage: 0.0001, Seed: 3},
		{Name: "secondary"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	urls := []string{"http://gains.simtest/p", "http://plain.simtest/p"}
	gain := fed.UsableGain(urls)
	// The near-zero-coverage primary holds (almost surely) nothing;
	// the keep-all secondary holds usable copies of both URLs.
	if gain != 2 {
		t.Errorf("usable gain = %d, want 2", gain)
	}
	solo, _ := New(base, DefaultManifest())
	if g := solo.UsableGain(urls); g != 0 {
		t.Errorf("single-member gain = %d", g)
	}

	// Budget-aware gain: an identity primary HOLDS a usable copy of the
	// slow URL but cannot deliver it inside the federation budget; the
	// fast secondary can — the §4.1 timeout miss the hedge rescues.
	slowBase := archive.New()
	slowBase.Add(snap("http://slow.simtest/p", 50, 200))
	slowBase.SetLookupLatency("http://slow.simtest/p", 10*time.Second)
	hedged, err := New(slowBase, Manifest{
		BudgetMS: 1000,
		Members: []MemberSpec{
			{Name: "wayback"},
			{Name: "mirror", LatencyMS: 40},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if g := hedged.UsableGain([]string{"http://slow.simtest/p"}); g != 1 {
		t.Errorf("budget-aware gain = %d, want 1 (slow primary, fast secondary)", g)
	}
}
