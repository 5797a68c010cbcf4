package core

import (
	"context"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"permadead/internal/fetch"
	"permadead/internal/simweb"
)

func TestParallelForVisitsEveryIndexOnce(t *testing.T) {
	for _, c := range []struct{ n, conc int }{
		{0, 8}, {1, 8}, {7, 1}, {7, 3}, {100, 8}, {5, 50}, {10, 0}, {10, -4},
	} {
		visits := make([]atomic.Int32, c.n)
		ParallelFor(c.n, c.conc, func(i int) { visits[i].Add(1) })
		for i := range visits {
			if got := visits[i].Load(); got != 1 {
				t.Errorf("n=%d conc=%d: index %d visited %d times", c.n, c.conc, i, got)
			}
		}
	}
}

// TestParallelForBoundsConcurrency: at most c calls run at once, and c
// are actually reached. The first calls hold until the peak reaches c
// and 20 ms have passed, so a loop that ran sequentially fails on the
// peak, and one that started more workers exceeds it.
func TestParallelForBoundsConcurrency(t *testing.T) {
	const n, c = 100, 4
	var cur, peak atomic.Int32
	start := time.Now()
	ParallelFor(n, c, func(int) {
		raise(&peak, cur.Add(1))
		defer cur.Add(-1)
		for p := peak.Load(); p < c || p == c && time.Since(start) < 20*time.Millisecond; p = peak.Load() {
			if time.Since(start) > 2*time.Second {
				break
			}
			runtime.Gosched()
		}
	})
	if p := peak.Load(); p != c {
		t.Errorf("peak concurrent calls = %d, want exactly the bound %d", p, c)
	}
}

// raise lifts peak to k when k is higher.
func raise(peak *atomic.Int32, k int32) {
	for p := peak.Load(); k > p && !peak.CompareAndSwap(p, k); p = peak.Load() {
	}
}

// newStudy builds a fresh study over the shared small universe. Study
// values contain a sync.Once and must not be copied, hence a
// constructor rather than copying a prototype.
func newStudy(t *testing.T, conc int) *Study {
	t.Helper()
	u, _ := runStudy(t)
	cfg := DefaultConfig()
	cfg.SampleSize = u.Params.SampleSize
	cfg.CrawlArticles = 0
	cfg.Concurrency = conc
	return &Study{
		Config: cfg,
		Wiki:   u.Wiki,
		Arch:   u.Archive,
		Client: fetch.New(simweb.NewTransport(u.World, cfg.StudyTime)),
		Ranks:  u.World,
	}
}

// TestParallelReportMatchesSequential is the golden determinism check:
// the fully parallel pipeline must render byte-identical reports to a
// Concurrency-1 run over the same universe and seed.
func TestParallelReportMatchesSequential(t *testing.T) {
	seq, err := newStudy(t, 1).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, conc := range []int{8, 32} {
		par, err := newStudy(t, conc).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if a, b := seq.Render(), par.Render(); a != b {
			t.Errorf("Concurrency %d Render() differs from sequential:\n--- seq ---\n%s\n--- conc %d ---\n%s",
				conc, a, conc, b)
		}
		if a, b := seq.RenderComparison(), par.RenderComparison(); a != b {
			t.Errorf("Concurrency %d RenderComparison() differs from sequential", conc)
		}
	}
}

// TestStudyRunConcurrent32 runs the full pipeline at the default fan-out
// twice over one Study; with -race this enforces the archive/memo
// concurrency contract end to end.
func TestStudyRunConcurrent32(t *testing.T) {
	s := newStudy(t, 32)
	first, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if first.Render() != second.Render() {
		t.Error("repeated runs of one Study rendered differently")
	}
}

// TestMemoEffectiveness asserts the memo layer actually collapses
// repeated CDX scans during a study: links sharing directories, hosts,
// and domains must turn repeat scans into cache hits.
func TestMemoEffectiveness(t *testing.T) {
	s := newStudy(t, 8)
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	stats := s.Memo().Stats()
	if stats.Misses == 0 {
		t.Fatal("study ran no memoized CDX queries")
	}
	if stats.Hits == 0 {
		t.Errorf("memo never hit (misses %d): spatial scans are not being shared", stats.Misses)
	}
}

func TestSnapshotErroneousEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		snap archiveSnap
		want bool
	}{
		// 1xx captures are not usable copies.
		{"100 continue", archiveSnap{Initial: 100, Final: 100}, true},
		{"101 switching", archiveSnap{Initial: 101, Final: 200}, true},
		// Redirect-to-root is erroneous even when the target carries a
		// query string or fragment: it is still the homepage.
		{"root with query", archiveSnap{Initial: 302, Final: 200, To: "http://h.com/?ref=dead"}, true},
		{"root with fragment", archiveSnap{Initial: 301, Final: 200, To: "http://h.com/#top"}, true},
		{"bare host with query", archiveSnap{Initial: 302, Final: 200, To: "http://h.com?utm=1"}, true},
		{"deep path with query", archiveSnap{Initial: 301, Final: 200, To: "http://h.com/a/b.html?id=4"}, false},
		// A 3xx capture with no recorded target is unusable.
		{"empty redirect target", archiveSnap{Initial: 302, Final: 200, To: ""}, true},
		{"malformed zero status", archiveSnap{}, true},
	}
	for _, c := range cases {
		if got := SnapshotErroneous(c.snap.toSnapshot()); got != c.want {
			t.Errorf("%s: erroneous = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestTypoScanTruncationSurfaced checks the "no silent caps" counter:
// a domain holding more archived URLs than the typo-scan cap must be
// reported, not silently clipped.
func TestTypoScanTruncationSurfaced(t *testing.T) {
	u, r := runStudy(t)
	_ = u
	if r.TypoScanTruncated < 0 {
		t.Fatalf("negative truncation counter: %d", r.TypoScanTruncated)
	}
	// The small universe stays under the 4000-URL cap, so the baseline
	// run must report zero truncation and omit the table row.
	if r.TypoScanTruncated != 0 {
		t.Errorf("small universe truncated %d typo scans", r.TypoScanTruncated)
	}
	if got := r.RenderSpatial(); containsTruncationRow(got) {
		t.Errorf("spatial table shows truncation row with zero truncations:\n%s", got)
	}
	// With a counter forced on, the row appears.
	forced := *r
	forced.TypoScanTruncated = 3
	if got := forced.RenderSpatial(); !containsTruncationRow(got) {
		t.Errorf("spatial table hides a non-zero truncation counter:\n%s", got)
	}
}

func containsTruncationRow(s string) bool {
	return strings.Contains(s, "truncated")
}

// TestStreamOrderedEmitsInOrder checks the batch fold's core contract
// across concurrency shapes: every index is emitted exactly once, in
// strict ascending order, regardless of how workers interleave.
func TestStreamOrderedEmitsInOrder(t *testing.T) {
	for _, c := range []struct{ n, conc int }{
		{0, 8}, {1, 8}, {7, 1}, {100, 8}, {5, 50}, {500, 16},
	} {
		var emitted []int
		err := StreamOrdered(context.Background(), c.n, c.conc,
			func(i int) int { return i * i },
			func(i, v int) error {
				if v != i*i {
					t.Fatalf("n=%d conc=%d: index %d carried %d, want %d", c.n, c.conc, i, v, i*i)
				}
				emitted = append(emitted, i)
				return nil
			})
		if err != nil {
			t.Fatalf("n=%d conc=%d: %v", c.n, c.conc, err)
		}
		if len(emitted) != c.n {
			t.Fatalf("n=%d conc=%d: emitted %d values", c.n, c.conc, len(emitted))
		}
		for i, got := range emitted {
			if got != i {
				t.Fatalf("n=%d conc=%d: position %d emitted index %d", c.n, c.conc, i, got)
			}
		}
	}
}

// TestStreamOrderedEmitError checks an emit error stops the fan-out:
// the error comes back, no further emits happen, and workers exit
// (the test would deadlock or leak otherwise under -race).
func TestStreamOrderedEmitError(t *testing.T) {
	wantErr := context.DeadlineExceeded // any sentinel
	emits := 0
	err := StreamOrdered(context.Background(), 1000, 8,
		func(i int) int { return i },
		func(i, v int) error {
			emits++
			if i == 3 {
				return wantErr
			}
			return nil
		})
	if err != wantErr {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	if emits != 4 {
		t.Errorf("emitted %d times after error at index 3, want 4", emits)
	}
}

// TestStreamOrderedCancellation checks ctx cancellation mid-stream
// returns the ctx error without emitting the full range.
func TestStreamOrderedCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	emits := 0
	err := StreamOrdered(ctx, 1000, 4,
		func(i int) int { return i },
		func(i, v int) error {
			emits++
			if emits == 5 {
				cancel()
			}
			return nil
		})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if emits >= 1000 {
		t.Error("cancellation did not stop the stream")
	}
}

// goroutineID is the "goroutine N" prefix of the caller's stack header.
func goroutineID() string {
	var buf [64]byte
	header := string(buf[:runtime.Stack(buf[:], false)])
	return header[:strings.IndexByte(header, '[')]
}

// TestStreamOrderedIdle pins the idle hook's contract: it runs on the
// calling goroutine, before every wait that follows an emit, only when
// something was emitted since its last run, and last of all after the
// final emit. Items 3 and 6 cannot finish until idle has run with all
// their predecessors emitted, so an emitter that waits on them without
// running idle first never finishes — the deadline turns that into a
// failure.
func TestStreamOrderedIdle(t *testing.T) {
	const n = 9
	for _, conc := range []int{1, 3, 16} {
		gates := map[int]chan struct{}{3: make(chan struct{}), 6: make(chan struct{})}
		var log []string // emit and idle share it unsynchronised: one goroutine, or -race objects
		emitted := 0
		var caller string
		done := make(chan error, 1)
		go func() {
			caller = goroutineID()
			done <- StreamOrderedIdle(context.Background(), n, conc,
				func(i int) int {
					if g := gates[i]; g != nil {
						<-g
					}
					return i
				},
				func(i, _ int) error {
					if id := goroutineID(); id != caller {
						t.Errorf("conc=%d: emit on %s, caller is %s", conc, id, caller)
					}
					emitted++
					log = append(log, "emit")
					return nil
				},
				func() {
					if id := goroutineID(); id != caller {
						t.Errorf("conc=%d: idle on %s, caller is %s", conc, id, caller)
					}
					log = append(log, "idle")
					if g := gates[emitted]; g != nil {
						close(g)
					}
				})
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("conc=%d: %v", conc, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("conc=%d: stream stuck: it waited on a held item without running idle", conc)
		}
		if emitted != n || log[len(log)-1] != "idle" {
			t.Errorf("conc=%d: %d emits, last event %q; want %d and a closing idle", conc, emitted, log[len(log)-1], n)
		}
		for i := 1; i < len(log); i++ {
			if log[i] == "idle" && log[i-1] == "idle" {
				t.Errorf("conc=%d: idle ran twice with nothing emitted between: %v", conc, log)
				break
			}
		}
		if log[0] == "idle" {
			t.Errorf("conc=%d: idle ran before anything was emitted: %v", conc, log)
		}
	}
}
