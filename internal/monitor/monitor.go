// Package monitor is the continuous half of the study: where
// internal/core measures a frozen sample once, the monitor keeps a
// working set of links warm — ingesting live edit events, re-checking
// verdicts as they go stale, and publishing every verdict change to a
// durable journal and to streaming subscribers.
//
// Concurrency model: ONE authoritative goroutine (the loop) owns all
// monitor state. A due-day's checks run on one goroutine that fans them
// out through core.ParallelFor and hands the outcomes back in one send;
// a repair runs on one goroutine of its own, one at a time; public API
// calls post closures onto the command channel and wait for replies.
// Nothing outside the loop ever touches the link table, the re-check
// schedule, or the subscriber set, so the package needs no locks around
// its state and is race-clean by construction. While no check or repair
// runs, the loop is the monitor's only goroutine.
//
// Time is the tickable simulated clock. Advance is synchronous: it
// runs every re-check that falls due in the window — each executed at
// its *scheduled* day against the simulated web as of that day — waits
// for the resulting repairs, then moves the clock and returns. Two
// runs over the same universe therefore produce the same verdict
// flips, which is what makes the streaming smoke test assertable.
//
// Within one due-day, checks fan out across at most Config.Checkers
// goroutines and results are applied in URL-sorted order, so journal
// sequence numbers are also deterministic, not an artifact of goroutine
// scheduling.
package monitor

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"permadead/internal/core"
	"permadead/internal/journal"
	"permadead/internal/simclock"
	"permadead/internal/wikimedia"
)

// ErrClosed is returned by API calls after Close.
var ErrClosed = errors.New("monitor: closed")

// ErrTooManySubscribers is returned by Subscribe at the configured cap.
var ErrTooManySubscribers = errors.New("monitor: too many subscribers")

// Repairer is the opt-in flip-to-dead hook: when a watched link with
// known citing articles flips to dead, the monitor asks the repairer
// to revisit that citation (IABot's ScanLink satisfies this directly).
type Repairer interface {
	ScanLink(ctx context.Context, title, url string, day simclock.Day) (bool, error)
}

// Config wires and tunes a Monitor. Checker and Clock are required.
type Config struct {
	// TTLDays is the re-check cadence for settled verdicts (default 30).
	TTLDays int
	// Checkers bounds how many checks of one due-day run at once
	// (default 8).
	Checkers int
	// SubscriberBuffer is each subscriber's bounded event buffer
	// (default 256). A subscriber that falls this far behind is
	// dropped and flagged, never waited for.
	SubscriberBuffer int
	// MaxSubscribers caps concurrent subscriptions (default 64).
	MaxSubscribers int

	// Clock is the simulated clock the monitor advances.
	Clock *simclock.Clock
	// Checker measures link liveness.
	Checker Checker
	// Journal records verdict flips; nil uses a fresh in-memory one.
	Journal *journal.Journal
	// Repairer, when set, is invoked on flips to dead (see Repairer).
	Repairer Repairer
	// Feed, when set, supplies live link addition/removal events; the
	// monitor updates watched articles' link membership from it.
	Feed *wikimedia.Feed
}

func (c Config) withDefaults() Config {
	if c.TTLDays <= 0 {
		c.TTLDays = 30
	}
	if c.Checkers <= 0 {
		c.Checkers = 8
	}
	if c.SubscriberBuffer <= 0 {
		c.SubscriberBuffer = 256
	}
	if c.MaxSubscribers <= 0 {
		c.MaxSubscribers = 64
	}
	return c
}

// Event is one verdict flip as delivered to subscribers: the journal
// entry plus a wall-clock emission stamp so stream consumers can
// measure delivery latency. Replayed (historical) events carry 0.
type Event struct {
	journal.Entry
	EmittedUnixNs int64 `json:"emitted_unix_ns,omitempty"`
}

// Subscription is one live verdict-change feed. Replay holds the
// journal entries after the subscriber's resume cursor, captured
// atomically with registration — consuming Replay then Events yields
// every flip exactly once, with no gap and no duplicate at the seam.
type Subscription struct {
	ID int
	// Replay is the catch-up backlog (possibly empty).
	Replay []journal.Entry
	// Events delivers live flips. Closed when the subscriber is
	// dropped for falling behind, unsubscribed, or the monitor closes.
	Events <-chan Event

	dropped atomic.Bool
}

// Dropped reports whether the subscription was terminated for falling
// behind (as opposed to a clean unsubscribe or shutdown).
func (s *Subscription) Dropped() bool { return s.dropped.Load() }

// WatchRequest names links to watch directly and/or articles to watch
// with their current external URLs (the caller resolves titles to
// URLs; the monitor tracks membership changes from the feed
// afterwards). For Unwatch, Articles' URL lists are ignored.
type WatchRequest struct {
	URLs     []string
	Articles map[string][]string
}

// LinkStatus is a point-in-time snapshot of one watched link.
type LinkStatus struct {
	URL         string       `json:"url"`
	Verdict     Verdict      `json:"verdict"`
	Category    string       `json:"category,omitempty"`
	Suspect     bool         `json:"suspect,omitempty"`
	LastChecked simclock.Day `json:"-"`
	NextCheck   simclock.Day `json:"-"`
	// LastCheckedDate/NextCheckDate render the days for JSON readers.
	LastCheckedDate string   `json:"last_checked,omitempty"`
	NextCheckDate   string   `json:"next_check,omitempty"`
	Articles        []string `json:"articles,omitempty"`
	Explicit        bool     `json:"explicit,omitempty"`
}

// Stats is a snapshot of monitor activity.
type Stats struct {
	Day             simclock.Day `json:"-"`
	Date            string       `json:"date"`
	Watched         int          `json:"watched_links"`
	WatchedArticles int          `json:"watched_articles"`
	Alive           int          `json:"alive"`
	Dead            int          `json:"dead"`
	Unknown         int          `json:"unknown"`
	Suspect         int          `json:"suspect"`
	FlipsToDead     int64        `json:"flips_to_dead"`
	FlipsToAlive    int64        `json:"flips_to_alive"`
	ChecksScheduled int64        `json:"checks_scheduled"`
	ChecksExecuted  int64        `json:"checks_executed"`
	RepairsQueued   int64        `json:"repairs_queued"`
	RepairsEdited   int64        `json:"repairs_edited"`
	Subscribers     int          `json:"subscribers"`
	SubsDropped     int64        `json:"subscribers_dropped"`
	JournalEntries  int          `json:"journal_entries"`
	JournalBytes    int64        `json:"journal_bytes"`
	FeedSeen        int64        `json:"feed_seen"`
	FeedDropped     int64        `json:"feed_dropped"`
}

// linkState is the loop-owned record of one watched link.
type linkState struct {
	url         string
	verdict     Verdict
	category    string
	suspect     bool
	lastChecked simclock.Day
	nextCheck   simclock.Day
	articles    map[string]struct{}
	// explicit marks links watched directly (surviving article
	// membership changes) vs. those watched only via an article.
	explicit bool
	checking bool
	heapIdx  int
}

func (ls *linkState) status() LinkStatus {
	st := LinkStatus{
		URL: ls.url, Verdict: ls.verdict, Category: ls.category,
		Suspect: ls.suspect, LastChecked: ls.lastChecked,
		NextCheck: ls.nextCheck, Explicit: ls.explicit,
		Articles: sortedKeys(ls.articles),
	}
	if ls.lastChecked.Valid() && ls.lastChecked != 0 {
		st.LastCheckedDate = ls.lastChecked.String()
	}
	st.NextCheckDate = ls.nextCheck.String()
	return st
}

// checkHeap orders links by next re-check day, ties broken by URL so
// batch composition is deterministic.
type checkHeap []*linkState

func (h checkHeap) Len() int { return len(h) }
func (h checkHeap) Less(i, j int) bool {
	if h[i].nextCheck != h[j].nextCheck {
		return h[i].nextCheck.Before(h[j].nextCheck)
	}
	return h[i].url < h[j].url
}
func (h checkHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx = i
	h[j].heapIdx = j
}
func (h *checkHeap) Push(x any) {
	ls := x.(*linkState)
	ls.heapIdx = len(*h)
	*h = append(*h, ls)
}
func (h *checkHeap) Pop() any {
	old := *h
	n := len(old)
	ls := old[n-1]
	old[n-1] = nil
	ls.heapIdx = -1
	*h = old[:n-1]
	return ls
}

type checkJob struct {
	url string
	day simclock.Day
}

type checkOutcome struct {
	url string
	day simclock.Day
	res CheckResult
}

type repairJob struct {
	url    string
	titles []string
	day    simclock.Day
}

type subscriber struct {
	id  int
	ch  chan Event
	sub *Subscription
}

type watchOp struct {
	remaining map[string]struct{}
	done      chan struct{}
}

type advanceResult struct {
	day simclock.Day
	err error
}

type advanceOp struct {
	target simclock.Day
	done   chan advanceResult
}

// Monitor is the continuous verdict monitor. See the package comment
// for the concurrency model.
type Monitor struct {
	cfg      Config
	clock    *simclock.Clock
	checker  Checker
	jrnl     *journal.Journal
	repairer Repairer
	feed     *wikimedia.Feed
	feedCh   <-chan wikimedia.LinkEvent

	cmds       chan func()
	batchDone  chan []checkOutcome
	repairDone chan int
	quit       chan struct{}
	closeOnce  sync.Once
	// wg counts the loop, the running batch and the running repair.
	wg sync.WaitGroup

	// Everything below is owned by the loop goroutine.
	links           map[string]*linkState
	due             checkHeap
	watchedArticles map[string]struct{}
	subs            map[int]*subscriber
	nextSubID       int
	watches         []*watchOp

	batchActive bool

	repairQueue    []repairJob
	repairInflight bool

	adv *advanceOp

	flipsToDead, flipsToAlive       int64
	checksScheduled, checksExecuted int64
	repairsQueued, repairsEdited    int64
	subsDropped                     int64
}

// New starts a monitor. Callers must Close it.
func New(cfg Config) (*Monitor, error) {
	if cfg.Checker == nil {
		return nil, errors.New("monitor: Config.Checker is required")
	}
	if cfg.Clock == nil {
		return nil, errors.New("monitor: Config.Clock is required")
	}
	cfg = cfg.withDefaults()
	if cfg.Journal == nil {
		cfg.Journal = journal.New()
	}
	m := &Monitor{
		cfg:      cfg,
		clock:    cfg.Clock,
		checker:  cfg.Checker,
		jrnl:     cfg.Journal,
		repairer: cfg.Repairer,
		feed:     cfg.Feed,

		cmds:       make(chan func(), 64),
		batchDone:  make(chan []checkOutcome),
		repairDone: make(chan int),
		quit:       make(chan struct{}),

		links:           make(map[string]*linkState),
		watchedArticles: make(map[string]struct{}),
		subs:            make(map[int]*subscriber),
		nextSubID:       1,
	}
	if m.feed != nil {
		m.feedCh = m.feed.Events()
	}
	m.wg.Add(1)
	go m.loop()
	return m, nil
}

// Close stops the loop and waits for it and for the running batch and
// repair, if any. Pending Advance/Watch calls return ErrClosed;
// subscriber channels are closed.
func (m *Monitor) Close() {
	m.closeOnce.Do(func() {
		close(m.quit)
		m.wg.Wait()
	})
}

// Day returns the current simulated day.
func (m *Monitor) Day() simclock.Day { return m.clock.Now() }

// --- the authoritative loop ---

func (m *Monitor) loop() {
	defer func() {
		// Closing subscriber channels here (after the loop stops
		// broadcasting) lets SSE handlers unblock on shutdown.
		for id, sub := range m.subs {
			close(sub.ch)
			delete(m.subs, id)
		}
		m.wg.Done()
	}()
	for {
		m.pump()
		select {
		case cmd := <-m.cmds:
			cmd()
		case ev := <-m.feedCh:
			m.handleFeed(ev)
		case outs := <-m.batchDone:
			m.processBatch(outs)
		case edited := <-m.repairDone:
			m.repairInflight = false
			m.repairsEdited += int64(edited)
		case <-m.quit:
			return
		}
	}
}

// pump runs the loop's state machine between channel events: start
// the next batch if checks are due, start the next repair if none is
// running, and complete a pending Advance once the window is fully
// settled.
func (m *Monitor) pump() {
	m.drainFeed()
	if !m.batchActive {
		m.startBatch()
	}
	if !m.repairInflight && len(m.repairQueue) > 0 {
		job := m.repairQueue[0]
		m.repairQueue = m.repairQueue[1:]
		m.repairInflight = true
		m.wg.Add(1)
		go m.repair(job)
	}
	if m.adv != nil && !m.batchActive && !m.repairInflight && len(m.repairQueue) == 0 {
		op := m.adv
		m.adv = nil
		err := m.clock.AdvanceTo(op.target)
		op.done <- advanceResult{day: m.clock.Now(), err: err}
	}
}

// drainFeed applies queued link membership events without blocking.
func (m *Monitor) drainFeed() {
	if m.feedCh == nil {
		return
	}
	for {
		select {
		case ev := <-m.feedCh:
			m.handleFeed(ev)
		default:
			return
		}
	}
}

func (m *Monitor) handleFeed(ev wikimedia.LinkEvent) {
	if _, ok := m.watchedArticles[ev.Title]; !ok {
		return
	}
	if ev.Removed {
		ls, ok := m.links[ev.URL]
		if !ok {
			return
		}
		delete(ls.articles, ev.Title)
		m.maybeDrop(ls)
		return
	}
	m.ensureLink(ev.URL, ev.Title, false, ev.Day)
}

// horizon is the latest day checks may currently run: the Advance
// target mid-advance, else the present.
func (m *Monitor) horizon() simclock.Day {
	if m.adv != nil {
		return m.adv.target
	}
	return m.clock.Now()
}

// startBatch collects every link due on the earliest pending check day
// (within the horizon) into one batch and starts it. Checks execute at
// that scheduled day — during an Advance the simulated web is queried
// as of each due day in turn, not as of the target.
func (m *Monitor) startBatch() {
	if len(m.due) == 0 {
		return
	}
	h := m.horizon()
	if m.due[0].nextCheck.After(h) {
		return
	}
	day := m.due[0].nextCheck
	if day.Before(m.clock.Now()) {
		day = m.clock.Now()
	}
	var jobs []checkJob
	for len(m.due) > 0 && !m.due[0].nextCheck.After(day) {
		ls := heap.Pop(&m.due).(*linkState)
		ls.checking = true
		jobs = append(jobs, checkJob{url: ls.url, day: day})
	}
	m.batchActive = true
	m.wg.Add(1)
	go m.runBatch(jobs)
}

// runBatch runs one due-day's checks on at most Config.Checkers
// goroutines and hands every outcome back to the loop in one send.
// Once the monitor is closing it starts no further check.
func (m *Monitor) runBatch(jobs []checkJob) {
	defer m.wg.Done()
	ctx := context.Background()
	outs := make([]checkOutcome, len(jobs))
	core.ParallelFor(len(jobs), m.cfg.Checkers, func(i int) {
		select {
		case <-m.quit:
			return
		default:
		}
		j := jobs[i]
		outs[i] = checkOutcome{url: j.url, day: j.day, res: m.checker.Check(ctx, j.url, j.day)}
	})
	select {
	case m.batchDone <- outs:
	case <-m.quit:
	}
}

// repair runs one repair job, title by title. The loop starts the next
// only after this one reports back, so wiki edits land in queue order.
func (m *Monitor) repair(job repairJob) {
	defer m.wg.Done()
	ctx := context.Background()
	edited := 0
	for _, title := range job.titles {
		if ok, err := m.repairer.ScanLink(ctx, title, job.url, job.day); err == nil && ok {
			edited++
		}
	}
	select {
	case m.repairDone <- edited:
	case <-m.quit:
	}
}

// processBatch applies a completed batch's results in URL order, so
// journal sequence numbers do not depend on worker scheduling.
func (m *Monitor) processBatch(outs []checkOutcome) {
	m.batchActive = false
	m.checksExecuted += int64(len(outs))
	sort.Slice(outs, func(i, j int) bool { return outs[i].url < outs[j].url })
	for _, out := range outs {
		m.applyResult(out)
	}
}

func (m *Monitor) applyResult(out checkOutcome) {
	m.resolveWatches(out.url)
	ls, ok := m.links[out.url]
	if !ok {
		return // unwatched while the check was in flight
	}
	ls.checking = false
	old := ls.verdict
	ls.verdict = out.res.Verdict
	ls.category = out.res.Category
	ls.suspect = out.res.Suspect
	ls.lastChecked = out.day

	next := out.day.Add(m.cfg.TTLDays)
	if out.res.RecheckAt.Valid() && out.res.RecheckAt.After(out.day) && out.res.RecheckAt.Before(next) {
		next = out.res.RecheckAt
	}
	ls.nextCheck = next
	heap.Push(&m.due, ls)
	m.checksScheduled++

	// unknown→X is initial state, not a flip: only transitions between
	// settled verdicts are journaled and broadcast.
	if old != VerdictUnknown && old != ls.verdict {
		m.recordFlip(ls, old, out.day)
	}
}

func (m *Monitor) recordFlip(ls *linkState, old Verdict, day simclock.Day) {
	arts := sortedKeys(ls.articles)
	e := m.jrnl.Append(journal.Entry{
		Day: int(day), Date: day.String(), URL: ls.url,
		Old: string(old), New: string(ls.verdict),
		Category: ls.category, Suspect: ls.suspect, Articles: arts,
	})
	if ls.verdict == VerdictDead {
		m.flipsToDead++
	} else {
		m.flipsToAlive++
	}
	m.broadcast(Event{Entry: e, EmittedUnixNs: time.Now().UnixNano()})
	if ls.verdict == VerdictDead && m.repairer != nil && len(arts) > 0 {
		m.repairQueue = append(m.repairQueue, repairJob{url: ls.url, titles: arts, day: day})
		m.repairsQueued += int64(len(arts))
	}
}

func (m *Monitor) broadcast(ev Event) {
	for id, sub := range m.subs {
		select {
		case sub.ch <- ev:
		default:
			// Bounded buffer full: drop and flag the slow consumer
			// rather than ever blocking the loop.
			sub.sub.dropped.Store(true)
			close(sub.ch)
			delete(m.subs, id)
			m.subsDropped++
		}
	}
}

func (m *Monitor) ensureLink(url, article string, explicit bool, due simclock.Day) *linkState {
	ls, ok := m.links[url]
	if !ok {
		if due.Before(m.clock.Now()) {
			due = m.clock.Now()
		}
		ls = &linkState{
			url: url, verdict: VerdictUnknown, nextCheck: due,
			articles: make(map[string]struct{}), heapIdx: -1,
		}
		m.links[url] = ls
		heap.Push(&m.due, ls)
		m.checksScheduled++
	}
	if article != "" {
		ls.articles[article] = struct{}{}
	}
	if explicit {
		ls.explicit = true
	}
	return ls
}

// maybeDrop forgets a link no longer watched by anything.
func (m *Monitor) maybeDrop(ls *linkState) {
	if ls.explicit || len(ls.articles) > 0 {
		return
	}
	if ls.heapIdx >= 0 {
		heap.Remove(&m.due, ls.heapIdx)
	}
	delete(m.links, ls.url)
	// A Watch waiting on this link's first verdict would otherwise
	// never resolve (its check is gone or will be discarded).
	m.resolveWatches(ls.url)
}

func (m *Monitor) resolveWatches(url string) {
	if len(m.watches) == 0 {
		return
	}
	kept := m.watches[:0]
	for _, op := range m.watches {
		delete(op.remaining, url)
		if len(op.remaining) == 0 {
			close(op.done)
		} else {
			kept = append(kept, op)
		}
	}
	for i := len(kept); i < len(m.watches); i++ {
		m.watches[i] = nil
	}
	m.watches = kept
}

// --- public API (each call posts a closure to the loop) ---

// call runs fn on the loop and returns its result, or ErrClosed once
// the monitor is closing. Every wait pairs with quit: a Close landing
// between the enqueue and the loop running fn must not strand the
// caller.
func call[T any](m *Monitor, fn func() T) (T, error) {
	var zero T
	// Check quit on its own first: after Close, the select below could
	// still enqueue into the buffered cmds channel (select picks
	// randomly among ready cases) even though the loop is gone.
	select {
	case <-m.quit:
		return zero, ErrClosed
	default:
	}
	reply := make(chan T, 1)
	select {
	case m.cmds <- func() { reply <- fn() }:
	case <-m.quit:
		return zero, ErrClosed
	}
	select {
	case v := <-reply:
		return v, nil
	case <-m.quit:
		return zero, ErrClosed
	}
}

// Watch starts watching the requested links and articles, then blocks
// until every newly watched link has its initial verdict (or ctx
// ends). Initial verdicts are state, not flips: nothing is journaled
// or broadcast for them. It returns how many links are newly watched.
func (m *Monitor) Watch(ctx context.Context, req WatchRequest) (int, error) {
	op := &watchOp{remaining: make(map[string]struct{}), done: make(chan struct{})}
	added, err := call(m, func() int {
		before := len(m.links)
		track := func(url, article string, explicit bool) {
			if url == "" {
				return
			}
			ls := m.ensureLink(url, article, explicit, m.clock.Now())
			if ls.verdict == VerdictUnknown {
				op.remaining[url] = struct{}{}
			}
		}
		for _, u := range req.URLs {
			track(u, "", true)
		}
		for title, urls := range req.Articles {
			m.watchedArticles[title] = struct{}{}
			for _, u := range urls {
				track(u, title, false)
			}
		}
		if len(op.remaining) == 0 {
			close(op.done)
		} else {
			m.watches = append(m.watches, op)
		}
		return len(m.links) - before
	})
	if err != nil {
		return 0, err
	}
	select {
	case <-op.done:
		return added, nil
	case <-ctx.Done():
		return added, ctx.Err()
	case <-m.quit:
		return added, ErrClosed
	}
}

// Unwatch stops watching the named links and articles. Article URL
// lists in the request are ignored; current membership is used.
func (m *Monitor) Unwatch(req WatchRequest) error {
	_, err := call(m, func() struct{} {
		for _, u := range req.URLs {
			if ls, ok := m.links[u]; ok {
				ls.explicit = false
				m.maybeDrop(ls)
			}
		}
		for title := range req.Articles {
			if _, ok := m.watchedArticles[title]; !ok {
				continue
			}
			delete(m.watchedArticles, title)
			for _, ls := range m.links {
				if _, ok := ls.articles[title]; ok {
					delete(ls.articles, title)
					m.maybeDrop(ls)
				}
			}
		}
		return struct{}{}
	})
	return err
}

// Advance moves the simulated clock forward n days, synchronously
// executing every re-check that falls due in the window (each at its
// scheduled day) and waiting for the repairs they trigger. It returns
// the new current day. Advance(0) flushes pending feed events and
// already-due checks without moving time.
func (m *Monitor) Advance(days int) (simclock.Day, error) {
	if days < 0 {
		return m.clock.Now(), fmt.Errorf("monitor: cannot advance %d days", days)
	}
	op := &advanceOp{done: make(chan advanceResult, 1)}
	busy, err := call(m, func() error {
		if m.adv != nil {
			return errors.New("monitor: advance already in progress")
		}
		op.target = m.clock.Now().Add(days)
		m.adv = op
		return nil
	})
	if err == nil {
		err = busy
	}
	if err != nil {
		return m.clock.Now(), err
	}
	select {
	case r := <-op.done:
		return r.day, r.err
	case <-m.quit:
		return m.clock.Now(), ErrClosed
	}
}

// Subscribe opens a verdict-change subscription resuming after journal
// sequence lastSeq (pass the last seq you processed to resume; 0 for
// everything since the start of history). Replay capture and live
// registration are atomic, so no flip is missed or duplicated at the
// boundary.
//
// A non-negative lastSeq is a resume contract: if entries after it
// were evicted from the journal's in-memory window and cannot be
// re-read from its file sink, Subscribe fails with a
// *journal.TruncatedError rather than silently skipping them. A
// negative lastSeq waives the contract — the subscription replays
// whatever history is still retained and continues live (the shape a
// first-time subscriber with no cursor wants).
func (m *Monitor) Subscribe(lastSeq int64) (*Subscription, error) {
	type res struct {
		sub *Subscription
		err error
	}
	r, err := call(m, func() res {
		if len(m.subs) >= m.cfg.MaxSubscribers {
			return res{err: ErrTooManySubscribers}
		}
		// Replay, not After: a cursor older than the journal's
		// in-memory window must come back from the file sink or fail
		// loudly (TruncatedError), never silently skip flips. A
		// negative cursor is the no-contract subscribe: retained
		// history only.
		var backlog []journal.Entry
		if lastSeq < 0 {
			backlog = m.jrnl.After(0)
		} else {
			var err error
			backlog, err = m.jrnl.Replay(lastSeq)
			if err != nil {
				return res{err: err}
			}
		}
		id := m.nextSubID
		m.nextSubID++
		evCh := make(chan Event, m.cfg.SubscriberBuffer)
		s := &Subscription{ID: id, Replay: backlog, Events: evCh}
		m.subs[id] = &subscriber{id: id, ch: evCh, sub: s}
		return res{sub: s}
	})
	if err != nil {
		return nil, err
	}
	return r.sub, r.err
}

// Unsubscribe closes a subscription. Safe to call for already-dropped
// IDs.
func (m *Monitor) Unsubscribe(id int) {
	_, _ = call(m, func() struct{} {
		if sub, ok := m.subs[id]; ok {
			close(sub.ch)
			delete(m.subs, id)
		}
		return struct{}{}
	})
}

// Watched returns a snapshot of all watched links, sorted by URL.
func (m *Monitor) Watched() ([]LinkStatus, error) {
	out, err := call(m, func() []LinkStatus {
		out := make([]LinkStatus, 0, len(m.links))
		for _, ls := range m.links {
			out = append(out, ls.status())
		}
		return out
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out, nil
}

// Stats returns a snapshot of monitor counters.
func (m *Monitor) Stats() (Stats, error) {
	st, err := call(m, func() Stats {
		st := Stats{
			Day: m.clock.Now(), Date: m.clock.Now().String(),
			Watched:         len(m.links),
			WatchedArticles: len(m.watchedArticles),
			FlipsToDead:     m.flipsToDead,
			FlipsToAlive:    m.flipsToAlive,
			ChecksScheduled: m.checksScheduled,
			ChecksExecuted:  m.checksExecuted,
			RepairsQueued:   m.repairsQueued,
			RepairsEdited:   m.repairsEdited,
			Subscribers:     len(m.subs),
			SubsDropped:     m.subsDropped,
			// LastSeq, not Len: with a bounded in-memory journal
			// window the slice undercounts; the seq counter is the
			// true number of flips ever journaled.
			JournalEntries: int(m.jrnl.LastSeq()),
			JournalBytes:   m.jrnl.Bytes(),
		}
		for _, ls := range m.links {
			switch ls.verdict {
			case VerdictAlive:
				st.Alive++
			case VerdictDead:
				st.Dead++
			default:
				st.Unknown++
			}
			if ls.suspect {
				st.Suspect++
			}
		}
		return st
	})
	if err != nil {
		return Stats{}, err
	}
	if m.feed != nil {
		st.FeedSeen = m.feed.Seen()
		st.FeedDropped = m.feed.Dropped()
	}
	return st, nil
}

func sortedKeys(m map[string]struct{}) []string {
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
