package persist

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"permadead/internal/archive"
	"permadead/internal/simclock"
	"permadead/internal/urlutil"
)

// snapWorld adds one randomized capture history to every archive in
// as: several captures per key with same-day ties, the scheme and www.
// spellings of one key, 3xx captures with redirect targets, shared and
// empty bodies, and latency overrides. It returns probe URLs — every
// spelling of every captured key, and keys never captured — and every
// capture day.
func snapWorld(rng *rand.Rand, as ...*archive.Archive) (probes []string, days []simclock.Day) {
	spellings := []string{"http://", "https://", "http://www.", "https://www."}
	bodies := []string{"", "<html>a</html>", "<html>b</html>", "moved"}
	for k := 0; k < 10+rng.Intn(30); k++ {
		key := fmt.Sprintf("s%d.simtest/p/%d.html", rng.Intn(4), k)
		for _, sp := range spellings {
			probes = append(probes, sp+key)
		}
		if rng.Intn(4) == 0 {
			continue // a key never captured
		}
		for c := 0; c < 1+rng.Intn(6); c++ {
			s := archive.Snapshot{
				URL:           spellings[rng.Intn(len(spellings))] + key,
				Day:           simclock.Day(1000 + rng.Intn(40)), // ties are common
				InitialStatus: []int{200, 200, 404, 301, 302, 503}[rng.Intn(6)],
				FinalStatus:   []int{200, 404}[rng.Intn(2)],
				Body:          bodies[rng.Intn(len(bodies))],
				Digest:        rng.Uint64(),
			}
			if s.IsRedirect() {
				s.RedirectTo = fmt.Sprintf("http://s%d.simtest/target/%d", rng.Intn(4), rng.Intn(5))
			}
			days = append(days, s.Day)
			for _, a := range as {
				a.Add(s)
			}
		}
		if rng.Intn(3) == 0 {
			d := time.Duration(rng.Intn(20000)) * time.Millisecond
			for _, a := range as {
				a.SetLookupLatency(spellings[rng.Intn(len(spellings))]+key, d)
			}
		}
	}
	return probes, days
}

// snapshotSet is EachSnapshot as a multiset.
func snapshotSet(a *archive.Archive) map[archive.Snapshot]int {
	m := map[archive.Snapshot]int{}
	a.EachSnapshot(func(s archive.Snapshot) { m[s]++ })
	return m
}

// probedSnapshotSet is the same multiset read through an unfrozen
// archive's point reads, which is all it answers: each probed key's
// captures, once. snapWorld's probes spell every captured key.
func probedSnapshotSet(a *archive.Archive, probes []string) (m map[archive.Snapshot]int, total int) {
	m = map[archive.Snapshot]int{}
	seen := map[string]bool{}
	for _, u := range probes {
		if k := urlutil.SchemeAgnosticKey(u); !seen[k] {
			seen[k] = true
			for _, s := range a.Snapshots(u) {
				m[s]++
				total++
			}
		}
	}
	return m, total
}

// TestSnapshotReadsMatchReference holds every snapshot and latency read
// of both section backings — the frozen heap archive and its paged
// reopen — to an unfrozen twin, whose maps are the reference.
func TestSnapshotReadsMatchReference(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			ref, heap, saved := archive.New(), archive.New(), archive.New()
			probes, capDays := snapWorld(rng, ref, heap, saved)
			heap.Freeze()
			b, err := openPagedBytes(savedArchive(t, saved), nil)
			if err != nil {
				t.Fatal(err)
			}
			// Every capture day and its neighbours, once each.
			seen := map[simclock.Day]bool{}
			var days []simclock.Day
			for _, cd := range capDays {
				for _, d := range []simclock.Day{cd - 1, cd, cd + 1} {
					if !seen[d] {
						seen[d] = true
						days = append(days, d)
					}
				}
			}
			for _, c := range []struct {
				name string
				a    *archive.Archive
			}{{"heap", heap}, {"paged", b.Archive}} {
				a := c.a
				check := func(got, want any, format string, args ...any) {
					t.Helper()
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s: %s:\n got %+v\nwant %+v", c.name, fmt.Sprintf(format, args...), got, want)
					}
				}
				refSet, refTotal := probedSnapshotSet(ref, probes)
				check(a.TotalSnapshots(), refTotal, "TotalSnapshots")
				check(snapshotSet(a), refSet, "EachSnapshot")
				for _, u := range probes {
					check(a.Snapshots(u), ref.Snapshots(u), "Snapshots(%s)", u)
					check(a.LookupLatency(u), ref.LookupLatency(u), "LookupLatency(%s)", u)
					if len(ref.Snapshots(u)) > 0 && !a.MightHaveCaptures(u) {
						t.Errorf("%s: MightHaveCaptures(%s) = false for a captured URL", c.name, u)
					}
					gs, gok := a.First(u)
					ws, wok := ref.First(u)
					check([]any{gs, gok}, []any{ws, wok}, "First(%s)", u)
					for i, d := range days {
						to := days[rng.Intn(len(days))]
						check(a.SnapshotsBetween(u, d, to), ref.SnapshotsBetween(u, d, to), "SnapshotsBetween(%s, %d, %d)", u, d, to)
						gs, gok := a.FirstAfter(u, d)
						ws, wok := ref.FirstAfter(u, d)
						check([]any{gs, gok}, []any{ws, wok}, "FirstAfter(%s, %d)", u, d)
						for _, accept := range []func(archive.Snapshot) bool{nil, archive.AcceptUsable} {
							gs, gok := a.Closest(u, d, accept)
							ws, wok := ref.Closest(u, d, accept)
							check([]any{gs, gok}, []any{ws, wok}, "Closest(%s, %d, usable=%v)", u, d, accept != nil)
						}
						if i%3 != 1 {
							continue
						}
						q := archive.AvailabilityQuery{URL: u, Want: d, Accept: archive.AcceptUsable,
							Timeout: []time.Duration{0, 5 * time.Second}[rng.Intn(2)]}
						switch rng.Intn(3) {
						case 1:
							q.Before = days[rng.Intn(len(days))]
						case 2:
							q.AsOf = days[rng.Intn(len(days))]
						}
						gs, gok, gerr := a.Query(q)
						ws, wok, werr := ref.Query(q)
						check([]any{gs, gok, gerr}, []any{ws, wok, werr}, "Query(%s, want %d, before %d, as of %d, timeout %v)", u, d, q.Before, q.AsOf, q.Timeout)
					}
				}
			}
		})
	}
}

// TestSnapshotReadAllocs pins the per-call allocations of the snapshot
// reads on both section backings: 200 captures over 20 keys. Point
// reads decode one row in place and allocate nothing; a listing costs
// its output slice.
func TestSnapshotReadAllocs(t *testing.T) {
	heap, saved := archive.New(), archive.New()
	for _, a := range []*archive.Archive{heap, saved} {
		for i := 0; i < 200; i++ {
			a.Add(archive.Snapshot{URL: fmt.Sprintf("http://alloc.simtest/k%02d", i%20), Day: simclock.Day(10 + i),
				InitialStatus: []int{200, 404}[i%2], FinalStatus: 200, Body: "body"})
		}
		a.SetLookupLatency("http://alloc.simtest/k03", 9*time.Second)
	}
	heap.Freeze()
	b, err := openPagedBytes(savedArchive(t, saved), nil)
	if err != nil {
		t.Fatal(err)
	}
	const url, miss = "http://alloc.simtest/k03", "http://alloc.simtest/none"
	q := archive.AvailabilityQuery{URL: url, Want: 100, Accept: archive.AcceptUsable, Timeout: 30 * time.Second}
	for _, c := range []struct {
		name string
		fn   func(a *archive.Archive)
		max  float64
	}{
		{"First", func(a *archive.Archive) { a.First(url) }, 0},
		{"FirstAfter", func(a *archive.Archive) { a.FirstAfter(url, 100) }, 0},
		{"Closest", func(a *archive.Archive) { a.Closest(url, 100, nil) }, 0},
		{"Closest usable", func(a *archive.Archive) { a.Closest(url, 100, archive.AcceptUsable) }, 0},
		{"Query", func(a *archive.Archive) { a.Query(q) }, 0}, //nolint:errcheck
		{"LookupLatency", func(a *archive.Archive) { a.LookupLatency(url) }, 0},
		{"MightHaveCaptures", func(a *archive.Archive) { a.MightHaveCaptures(miss) }, 0},
		{"Snapshots", func(a *archive.Archive) { a.Snapshots(url) }, 1},
		{"SnapshotsBetween", func(a *archive.Archive) { a.SnapshotsBetween(url, 50, 150) }, 1},
	} {
		for _, bk := range []struct {
			name string
			a    *archive.Archive
		}{{"heap", heap}, {"paged", b.Archive}} {
			if got := testing.AllocsPerRun(100, func() { c.fn(bk.a) }); got > c.max {
				t.Errorf("%s %s allocs/op = %.1f, want <= %.0f", bk.name, c.name, got, c.max)
			}
		}
	}
}
