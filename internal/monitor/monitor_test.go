package monitor

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"permadead/internal/journal"
	"permadead/internal/simclock"
	"permadead/internal/wikimedia"
)

// scriptChecker computes verdicts from a pure function of (url, day),
// so tests control exactly which re-check flips what.
type scriptChecker struct {
	mu    sync.Mutex
	fn    func(url string, day simclock.Day) CheckResult
	calls []checkJob
}

func (c *scriptChecker) Check(_ context.Context, url string, day simclock.Day) CheckResult {
	c.mu.Lock()
	c.calls = append(c.calls, checkJob{url: url, day: day})
	fn := c.fn
	c.mu.Unlock()
	return fn(url, day)
}

func (c *scriptChecker) callCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.calls)
}

func alive() CheckResult { return CheckResult{Verdict: VerdictAlive, Category: "200"} }
func dead() CheckResult  { return CheckResult{Verdict: VerdictDead, Category: "404"} }

func newTestMonitor(t *testing.T, cfg Config, fn func(string, simclock.Day) CheckResult) (*Monitor, *scriptChecker) {
	t.Helper()
	chk := &scriptChecker{fn: fn}
	if cfg.Clock == nil {
		cfg.Clock = simclock.NewClock(100)
	}
	cfg.Checker = chk
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m, chk
}

func TestInitialWatchIsNotAFlip(t *testing.T) {
	m, _ := newTestMonitor(t, Config{TTLDays: 10}, func(url string, _ simclock.Day) CheckResult {
		if url == "http://a.simtest/1" {
			return alive()
		}
		return dead()
	})
	added, err := m.Watch(context.Background(), WatchRequest{
		URLs: []string{"http://a.simtest/1", "http://b.simtest/2"},
	})
	if err != nil || added != 2 {
		t.Fatalf("added=%d err=%v", added, err)
	}
	if n := m.jrnl.Len(); n != 0 {
		t.Errorf("initial verdicts journaled %d flips", n)
	}
	watched, err := m.Watched()
	if err != nil || len(watched) != 2 {
		t.Fatalf("watched = %+v, %v", watched, err)
	}
	if watched[0].Verdict != VerdictAlive || watched[1].Verdict != VerdictDead {
		t.Errorf("verdicts = %s, %s", watched[0].Verdict, watched[1].Verdict)
	}
	if !watched[0].Explicit {
		t.Error("directly watched link should be explicit")
	}
	st, _ := m.Stats()
	if st.Alive != 1 || st.Dead != 1 || st.ChecksExecuted != 2 {
		t.Errorf("stats = %+v", st)
	}
	// Watching the same URLs again adds nothing and returns instantly.
	added, err = m.Watch(context.Background(), WatchRequest{URLs: []string{"http://a.simtest/1"}})
	if err != nil || added != 0 {
		t.Errorf("re-watch: added=%d err=%v", added, err)
	}
}

func TestTTLRecheckFlipDeliveredOnce(t *testing.T) {
	// Alive until day 110, dead after.
	m, chk := newTestMonitor(t, Config{TTLDays: 10}, func(_ string, day simclock.Day) CheckResult {
		if day.Before(110) {
			return alive()
		}
		return dead()
	})
	if _, err := m.Watch(context.Background(), WatchRequest{URLs: []string{"http://a.simtest/1"}}); err != nil {
		t.Fatal(err)
	}
	sub, err := m.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.Replay) != 0 {
		t.Fatalf("replay before any flips = %+v", sub.Replay)
	}

	day, err := m.Advance(15)
	if err != nil || day != 115 {
		t.Fatalf("advance: day=%v err=%v", day, err)
	}
	// One re-check fell due (at its scheduled day 110) and flipped.
	if n := m.jrnl.Len(); n != 1 {
		t.Fatalf("journal has %d entries", n)
	}
	e := m.jrnl.After(0)[0]
	if e.Seq != 1 || e.Day != 110 || e.Old != "alive" || e.New != "dead" {
		t.Errorf("entry = %+v", e)
	}
	ev := <-sub.Events
	if ev.Seq != 1 || ev.URL != "http://a.simtest/1" || ev.EmittedUnixNs == 0 {
		t.Errorf("event = %+v", ev)
	}
	select {
	case extra := <-sub.Events:
		t.Fatalf("unexpected second event %+v", extra)
	default:
	}

	// Advancing again re-checks (day 120, still dead): no new flip.
	if _, err := m.Advance(10); err != nil {
		t.Fatal(err)
	}
	if n := m.jrnl.Len(); n != 1 {
		t.Errorf("journal grew to %d without a verdict change", n)
	}
	if chk.callCount() != 3 {
		t.Errorf("checks = %d, want 3 (initial, 110, 120)", chk.callCount())
	}
}

func TestSuspectRecheckBeatsTTL(t *testing.T) {
	// Dead-and-suspect from day 100, window clears at 103.
	m, _ := newTestMonitor(t, Config{TTLDays: 30}, func(_ string, day simclock.Day) CheckResult {
		if day.Before(103) {
			return CheckResult{Verdict: VerdictDead, Category: "503", Suspect: true, RecheckAt: 103}
		}
		return alive()
	})
	if _, err := m.Watch(context.Background(), WatchRequest{URLs: []string{"http://flaky.simtest/1"}}); err != nil {
		t.Fatal(err)
	}
	watched, _ := m.Watched()
	if !watched[0].Suspect || watched[0].NextCheck != 103 {
		t.Fatalf("suspect verdict not rescheduled at window close: %+v", watched[0])
	}
	if _, err := m.Advance(10); err != nil {
		t.Fatal(err)
	}
	entries := m.jrnl.After(0)
	if len(entries) != 1 || entries[0].Day != 103 || entries[0].New != "alive" {
		t.Fatalf("flip entries = %+v", entries)
	}
	watched, _ = m.Watched()
	if watched[0].Suspect || watched[0].NextCheck != 133 {
		t.Errorf("post-recovery state = %+v", watched[0])
	}
}

func TestArticleMembershipFollowsEdits(t *testing.T) {
	wiki := wikimedia.NewWiki()
	wiki.Create("Art", 100, "U", "[http://a.simtest/1 A]")
	feed := wikimedia.NewFeed(64)
	feed.Attach(wiki)

	m, _ := newTestMonitor(t, Config{TTLDays: 30, Feed: feed}, func(string, simclock.Day) CheckResult {
		return alive()
	})
	if _, err := m.Watch(context.Background(), WatchRequest{
		Articles: map[string][]string{"Art": {"http://a.simtest/1"}},
	}); err != nil {
		t.Fatal(err)
	}

	// An edit adds a link: the monitor picks it up from the feed.
	if _, err := wiki.Edit("Art", 101, "U", "c", "[http://a.simtest/1 A] [http://b.simtest/2 B]"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Advance(1); err != nil {
		t.Fatal(err)
	}
	watched, _ := m.Watched()
	if len(watched) != 2 || watched[1].URL != "http://b.simtest/2" || watched[1].Verdict != VerdictAlive {
		t.Fatalf("after addition: %+v", watched)
	}
	if watched[1].Articles[0] != "Art" || watched[1].Explicit {
		t.Errorf("membership = %+v", watched[1])
	}

	// An edit removes the original link: it is forgotten (it was only
	// article-watched) and never re-checked again.
	if _, err := wiki.Edit("Art", 102, "U", "c", "[http://b.simtest/2 B]"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Advance(1); err != nil {
		t.Fatal(err)
	}
	watched, _ = m.Watched()
	if len(watched) != 1 || watched[0].URL != "http://b.simtest/2" {
		t.Fatalf("after removal: %+v", watched)
	}

	// Edits to unwatched articles are ignored.
	wiki.Create("Other", 103, "U", "[http://c.simtest/3 C]")
	if _, err := m.Advance(1); err != nil {
		t.Fatal(err)
	}
	if watched, _ = m.Watched(); len(watched) != 1 {
		t.Fatalf("unwatched article leaked in: %+v", watched)
	}
}

// TestEditAddedLinkCheckedAtEditDay pins the edit contract: a link an
// edit adds to a watched article is checked at the edit's day by the
// next Advance, and shows as unknown until then; a link one edit adds
// and the next removes before that Advance is never checked.
func TestEditAddedLinkCheckedAtEditDay(t *testing.T) {
	wiki := wikimedia.NewWiki()
	wiki.Create("Art", 100, "U", "[http://a.simtest/1 A]")
	feed := wikimedia.NewFeed(64)
	feed.Attach(wiki)
	m, chk := newTestMonitor(t, Config{TTLDays: 30, Feed: feed}, func(string, simclock.Day) CheckResult {
		return alive()
	})
	if _, err := m.Watch(context.Background(), WatchRequest{
		Articles: map[string][]string{"Art": {"http://a.simtest/1"}},
	}); err != nil {
		t.Fatal(err)
	}
	status := func(url string) (LinkStatus, bool) {
		t.Helper()
		watched, err := m.Watched()
		if err != nil {
			t.Fatal(err)
		}
		for _, ls := range watched {
			if ls.URL == url {
				return ls, true
			}
		}
		return LinkStatus{}, false
	}

	const b, c = "http://b.simtest/2", "http://c.simtest/3"
	if _, err := wiki.Edit("Art", 100, "U", "add b", "[http://a.simtest/1 A] ["+b+" B]"); err != nil {
		t.Fatal(err)
	}
	if ls, ok := status(b); !ok || ls.Verdict != VerdictUnknown {
		t.Fatalf("before the next Advance, the added link is %+v (watched %v), want unknown", ls, ok)
	}
	if _, err := m.Advance(5); err != nil {
		t.Fatal(err)
	}
	if ls, _ := status(b); ls.Verdict != VerdictAlive || ls.LastChecked != 100 {
		t.Fatalf("after Advance, the link added on day 100 is %+v, want alive, last checked on day 100", ls)
	}

	before, _ := m.Stats()
	calls := chk.callCount()
	if _, err := wiki.Edit("Art", 105, "U", "add c", "[http://a.simtest/1 A] ["+b+" B] ["+c+" C]"); err != nil {
		t.Fatal(err)
	}
	if ls, ok := status(c); !ok || ls.Verdict != VerdictUnknown {
		t.Fatalf("the added link is %+v (watched %v), want unknown", ls, ok)
	}
	if _, err := wiki.Edit("Art", 105, "U", "drop c", "[http://a.simtest/1 A] ["+b+" B]"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Advance(5); err != nil {
		t.Fatal(err)
	}
	after, _ := m.Stats()
	if after.ChecksExecuted != before.ChecksExecuted || chk.callCount() != calls {
		t.Errorf("a link added and removed between Advances was checked: checks %d -> %d, checker calls %d -> %d",
			before.ChecksExecuted, after.ChecksExecuted, calls, chk.callCount())
	}
	if _, ok := status(c); ok {
		t.Error("the removed link is still watched")
	}
}

func TestUnwatchStopsRechecks(t *testing.T) {
	m, chk := newTestMonitor(t, Config{TTLDays: 5}, func(string, simclock.Day) CheckResult {
		return alive()
	})
	if _, err := m.Watch(context.Background(), WatchRequest{URLs: []string{"http://a.simtest/1"}}); err != nil {
		t.Fatal(err)
	}
	if err := m.Unwatch(WatchRequest{URLs: []string{"http://a.simtest/1"}}); err != nil {
		t.Fatal(err)
	}
	if watched, _ := m.Watched(); len(watched) != 0 {
		t.Fatalf("still watched: %+v", watched)
	}
	if _, err := m.Advance(20); err != nil {
		t.Fatal(err)
	}
	if chk.callCount() != 1 {
		t.Errorf("checks after unwatch = %d, want 1 (initial only)", chk.callCount())
	}
}

// TestRewatchDuringCheckSchedulesOnce: a link unwatched and watched
// again while its check runs takes that check's outcome and stays in
// the schedule once, so later re-checks run once per due day.
func TestRewatchDuringCheckSchedulesOnce(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	m, chk := newTestMonitor(t, Config{TTLDays: 5}, func(string, simclock.Day) CheckResult {
		once.Do(func() {
			close(entered)
			<-release
		})
		return alive()
	})
	req := WatchRequest{URLs: []string{"http://a.simtest/1"}}
	watched := make(chan error, 2)
	go func() {
		_, err := m.Watch(context.Background(), req)
		watched <- err
	}()
	<-entered
	if err := m.Unwatch(req); err != nil {
		t.Fatal(err)
	}
	go func() {
		_, err := m.Watch(context.Background(), req)
		watched <- err
	}()
	// The second Watch has scheduled the link again once Watched lists it.
	for ls, _ := m.Watched(); len(ls) == 0; ls, _ = m.Watched() {
		runtime.Gosched()
	}
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-watched; err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Advance(5); err != nil {
		t.Fatal(err)
	}
	if n := chk.callCount(); n != 2 {
		t.Errorf("checker calls = %d, want 2 (the first check and one re-check on day 105)", n)
	}
}

// alternatingByDay flips the verdict every day and asks for a next-day
// re-check — a maximal flip generator for subscriber tests.
func alternatingByDay(_ string, day simclock.Day) CheckResult {
	cr := CheckResult{RecheckAt: day.Add(1)}
	if int(day)%2 == 0 {
		cr.Verdict = VerdictDead
		cr.Category = "503"
		cr.Suspect = true
	} else {
		cr.Verdict = VerdictAlive
		cr.Category = "200"
	}
	return cr
}

func TestSlowSubscriberDroppedAndFlagged(t *testing.T) {
	m, _ := newTestMonitor(t, Config{TTLDays: 30, SubscriberBuffer: 1}, alternatingByDay)
	if _, err := m.Watch(context.Background(), WatchRequest{URLs: []string{"http://a.simtest/1"}}); err != nil {
		t.Fatal(err)
	}
	sub, err := m.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	// Three flips into a 1-slot buffer with no consumer: the second
	// overflows, so the subscriber is dropped — the loop never blocks.
	if _, err := m.Advance(3); err != nil {
		t.Fatal(err)
	}
	got := 0
	for range sub.Events {
		got++
	}
	if got != 1 {
		t.Errorf("delivered %d events before drop, want 1", got)
	}
	if !sub.Dropped() {
		t.Error("subscription not flagged dropped")
	}
	st, _ := m.Stats()
	if st.SubsDropped != 1 || st.Subscribers != 0 {
		t.Errorf("stats = %+v", st)
	}
	if n := m.jrnl.Len(); n != 3 {
		t.Errorf("journal %d entries despite drop, want 3", n)
	}
}

func TestResumeReplayExactlyOnce(t *testing.T) {
	m, _ := newTestMonitor(t, Config{TTLDays: 30}, alternatingByDay)
	if _, err := m.Watch(context.Background(), WatchRequest{URLs: []string{"http://a.simtest/1"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Advance(3); err != nil { // flips at 101, 102, 103
		t.Fatal(err)
	}
	if m.jrnl.LastSeq() != 3 {
		t.Fatalf("lastSeq = %d", m.jrnl.LastSeq())
	}

	// Resume after seq 1: replay is exactly 2,3; live picks up at 4.
	sub, err := m.Subscribe(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.Replay) != 2 || sub.Replay[0].Seq != 2 || sub.Replay[1].Seq != 3 {
		t.Fatalf("replay = %+v", sub.Replay)
	}
	if _, err := m.Advance(2); err != nil { // flips at 104, 105
		t.Fatal(err)
	}
	var live []int64
	for len(live) < 2 {
		ev := <-sub.Events
		live = append(live, ev.Seq)
	}
	if live[0] != 4 || live[1] != 5 {
		t.Errorf("live seqs = %v", live)
	}
	m.Unsubscribe(sub.ID)
	if _, ok := <-sub.Events; ok {
		t.Error("events channel open after unsubscribe")
	}
	if sub.Dropped() {
		t.Error("clean unsubscribe flagged as drop")
	}
}

func TestSubscriberCap(t *testing.T) {
	m, _ := newTestMonitor(t, Config{MaxSubscribers: 2}, func(string, simclock.Day) CheckResult { return alive() })
	for i := 0; i < 2; i++ {
		if _, err := m.Subscribe(0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Subscribe(0); err != ErrTooManySubscribers {
		t.Fatalf("err = %v", err)
	}
}

type recordingRepairer struct {
	mu    sync.Mutex
	calls []repairJob
}

func (r *recordingRepairer) ScanLink(_ context.Context, title, url string, day simclock.Day) (bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.calls = append(r.calls, repairJob{url: url, titles: []string{title}, day: day})
	return true, nil
}

func TestRepairRunsOnFlipToDead(t *testing.T) {
	rep := &recordingRepairer{}
	m, _ := newTestMonitor(t, Config{TTLDays: 10, Repairer: rep}, func(_ string, day simclock.Day) CheckResult {
		if day.Before(110) {
			return alive()
		}
		return dead()
	})
	if _, err := m.Watch(context.Background(), WatchRequest{
		Articles: map[string][]string{"Art": {"http://a.simtest/1"}},
	}); err != nil {
		t.Fatal(err)
	}
	// Advance returns only after the repair triggered by the flip has
	// completed, so no sleep or polling is needed here.
	if _, err := m.Advance(15); err != nil {
		t.Fatal(err)
	}
	rep.mu.Lock()
	defer rep.mu.Unlock()
	if len(rep.calls) != 1 {
		t.Fatalf("repair calls = %+v", rep.calls)
	}
	c := rep.calls[0]
	if c.titles[0] != "Art" || c.url != "http://a.simtest/1" || c.day != 110 {
		t.Errorf("repair call = %+v", c)
	}
	st, _ := m.Stats()
	if st.RepairsQueued != 1 || st.RepairsEdited != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestRepairSkippedWithoutArticles(t *testing.T) {
	rep := &recordingRepairer{}
	m, _ := newTestMonitor(t, Config{TTLDays: 10, Repairer: rep}, func(_ string, day simclock.Day) CheckResult {
		if day.Before(110) {
			return alive()
		}
		return dead()
	})
	// Explicitly watched with no citing article: nothing to patch.
	if _, err := m.Watch(context.Background(), WatchRequest{URLs: []string{"http://a.simtest/1"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Advance(15); err != nil {
		t.Fatal(err)
	}
	rep.mu.Lock()
	defer rep.mu.Unlock()
	if len(rep.calls) != 0 {
		t.Errorf("repair calls = %+v", rep.calls)
	}
}

func TestJournalSeqsDeterministicAcrossRuns(t *testing.T) {
	run := func() []journal.Entry {
		m, _ := newTestMonitor(t, Config{TTLDays: 30, Checkers: 4}, alternatingByDay)
		urls := []string{
			"http://c.simtest/3", "http://a.simtest/1", "http://b.simtest/2",
			"http://e.simtest/5", "http://d.simtest/4",
		}
		if _, err := m.Watch(context.Background(), WatchRequest{URLs: urls}); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Advance(4); err != nil {
			t.Fatal(err)
		}
		return m.jrnl.After(0)
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Seq != b[i].Seq || a[i].URL != b[i].URL || a[i].Day != b[i].Day ||
			a[i].Old != b[i].Old || a[i].New != b[i].New {
			t.Fatalf("entry %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestCloseUnblocksEverything(t *testing.T) {
	m, _ := newTestMonitor(t, Config{}, func(string, simclock.Day) CheckResult { return alive() })
	sub, err := m.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	if _, ok := <-sub.Events; ok {
		t.Error("events channel open after close")
	}
	if _, err := m.Watch(context.Background(), WatchRequest{URLs: []string{"http://a.simtest/1"}}); err != ErrClosed {
		t.Errorf("watch after close: %v", err)
	}
	if _, err := m.Advance(1); err != ErrClosed {
		t.Errorf("advance after close: %v", err)
	}
	if _, err := m.Subscribe(0); err != ErrClosed {
		t.Errorf("subscribe after close: %v", err)
	}
}

// waitGoroutines polls until at most want goroutines run, failing after
// two seconds: an exiting goroutine may still be counted for a moment.
func waitGoroutines(t *testing.T, want int, when string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for n := runtime.NumGoroutine(); n > want; n = runtime.NumGoroutine() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, want at most %d", when, n, want)
		}
		time.Sleep(time.Millisecond)
	}
}

func manyURLs(n int) []string {
	urls := make([]string, n)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://l%02d.simtest/", i)
	}
	return urls
}

// TestIdleMonitorIsOneGoroutine: between calls a monitor runs no
// goroutine at all; checks and repairs run inside the Watch or Advance
// that made them due, on goroutines that end with them.
func TestIdleMonitorIsOneGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	m, _ := newTestMonitor(t, Config{TTLDays: 10, Repairer: &recordingRepairer{}}, func(_ string, day simclock.Day) CheckResult {
		if day.Before(110) {
			return alive()
		}
		return dead()
	})
	waitGoroutines(t, base, "after New")
	if _, err := m.Watch(context.Background(), WatchRequest{
		Articles: map[string][]string{"Art": manyURLs(20)},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Advance(15); err != nil {
		t.Fatal(err)
	}
	if st, _ := m.Stats(); st.RepairsQueued == 0 {
		t.Fatal("the advance ran no repair")
	}
	waitGoroutines(t, base, "after Advance")
}

// TestChecksBoundedByCheckers: one due-day's checks run Config.Checkers
// at a time, not one per job. The first checks hold until the peak
// reaches the bound and 20 ms have passed, so a batch that ran one at a
// time fails on the peak, and one that ran every job at once exceeds it.
func TestChecksBoundedByCheckers(t *testing.T) {
	const bound = 3
	var cur, peak atomic.Int32
	start := time.Now()
	m, _ := newTestMonitor(t, Config{Checkers: bound}, func(string, simclock.Day) CheckResult {
		k := cur.Add(1)
		defer cur.Add(-1)
		for p := peak.Load(); k > p && !peak.CompareAndSwap(p, k); p = peak.Load() {
		}
		for p := peak.Load(); p < bound || p == bound && time.Since(start) < 20*time.Millisecond; p = peak.Load() {
			if time.Since(start) > 2*time.Second {
				break
			}
			runtime.Gosched()
		}
		return alive()
	})
	if _, err := m.Watch(context.Background(), WatchRequest{URLs: manyURLs(20)}); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > bound || p <= 1 {
		t.Errorf("peak concurrent checks = %d, want 2..%d", p, bound)
	}
}

// TestCloseWaitsForRunningCheck: Close returns only once a blocked
// check has been released, and leaves no goroutine behind.
func TestCloseWaitsForRunningCheck(t *testing.T) {
	base := runtime.NumGoroutine()
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	m, _ := newTestMonitor(t, Config{}, func(string, simclock.Day) CheckResult {
		once.Do(func() { close(entered) })
		<-release
		return alive()
	})
	watchErr := make(chan error, 1)
	go func() {
		_, err := m.Watch(context.Background(), WatchRequest{URLs: []string{"http://a.simtest/1"}})
		watchErr <- err
	}()
	<-entered
	closed := make(chan struct{})
	go func() {
		m.Close()
		close(closed)
	}()
	if err := <-watchErr; err != ErrClosed {
		t.Fatalf("watch during close: %v", err)
	}
	select {
	case <-closed:
		t.Fatal("Close returned while a check was still running")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the check was released")
	}
	waitGoroutines(t, base, "after Close")
}
