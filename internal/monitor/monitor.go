// Package monitor is the continuous half of the study: where
// internal/core measures a frozen sample once, the monitor keeps a
// working set of links warm — ingesting live edit events, re-checking
// verdicts as they go stale, and publishing every verdict change to a
// durable journal and to streaming subscribers.
//
// Concurrency model: one mutex guards the link table, the re-check
// schedule, the subscriber set and the counters, and every public call
// first applies the wiki feed's queued events under it. Checks run in
// one place, settle, which only Watch and Advance call: one settle at a
// time pops the earliest due-day, checks its links through
// core.ParallelFor at Config.Checkers with the mutex released, applies
// the outcomes under the mutex, runs the repairs they queue, and
// repeats until nothing is due by its horizon. Advance settles on its
// caller's goroutine; Watch settles on one goroutine of its own, so ctx
// and Close can end its wait. A monitor with nothing in flight has no
// goroutine.
//
// Time is the tickable simulated clock. Advance is synchronous: it
// runs every re-check that falls due in the window — each executed at
// its *scheduled* day against the simulated web as of that day — and
// the repairs they trigger, then moves the clock and returns. A link an
// edit adds is checked at its edit day by the next Watch or Advance.
// Two runs over the same universe therefore produce the same verdict
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
	// monitor updates watched articles' link membership from it at the
	// start of each call, so its buffer must hold the events between
	// two calls.
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

// linkState is the record of one watched link.
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
	// heapIdx is the link's place in the schedule, -1 while its check
	// runs or once it is dropped.
	heapIdx int
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

type repairJob struct {
	url    string
	titles []string
	day    simclock.Day
}

type subscriber struct {
	ch  chan Event
	sub *Subscription
}

// Monitor is the continuous verdict monitor. See the package comment
// for the concurrency model.
type Monitor struct {
	cfg    Config
	clock  *simclock.Clock
	jrnl   *journal.Journal
	feedCh <-chan wikimedia.LinkEvent

	// quit is closed by Close, under mu.
	quit      chan struct{}
	closeOnce sync.Once
	// wg counts the running Watch settles and Advances; Close waits
	// for them.
	wg sync.WaitGroup
	// run lets one settle at a time check, so due-days run in order.
	run sync.Mutex

	// mu guards everything below.
	mu              sync.Mutex
	links           map[string]*linkState
	due             checkHeap
	watchedArticles map[string]struct{}
	subs            map[int]*subscriber
	nextSubID       int
	advancing       bool

	flipsToDead, flipsToAlive       int64
	checksScheduled, checksExecuted int64
	repairsQueued, repairsEdited    int64
	subsDropped                     int64
}

// New returns a monitor. Callers must Close it.
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
		cfg:             cfg,
		clock:           cfg.Clock,
		jrnl:            cfg.Journal,
		quit:            make(chan struct{}),
		links:           make(map[string]*linkState),
		watchedArticles: make(map[string]struct{}),
		subs:            make(map[int]*subscriber),
		nextSubID:       1,
	}
	if cfg.Feed != nil {
		m.feedCh = cfg.Feed.Events()
	}
	return m, nil
}

// Close closes every subscriber channel, then waits for the running
// checks and repairs, if any, which start nothing further. Pending
// Watch calls and every later call return ErrClosed.
func (m *Monitor) Close() {
	m.closeOnce.Do(func() {
		m.mu.Lock()
		close(m.quit)
		for id, sub := range m.subs {
			close(sub.ch)
			delete(m.subs, id)
		}
		m.mu.Unlock()
		m.wg.Wait()
	})
}

// Day returns the current simulated day.
func (m *Monitor) Day() simclock.Day { return m.clock.Now() }

func (m *Monitor) closing() bool {
	select {
	case <-m.quit:
		return true
	default:
		return false
	}
}

// lock takes the mutex for a public call: it fails with ErrClosed once
// the monitor is closed, and otherwise first applies every event the
// wiki feed has queued since the last call.
func (m *Monitor) lock() error {
	m.mu.Lock()
	if m.closing() {
		m.mu.Unlock()
		return ErrClosed
	}
	if m.feedCh == nil {
		return nil
	}
	for {
		select {
		case ev := <-m.feedCh:
			m.handleFeed(ev)
		default:
			return nil
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

// settle runs every check due by horizon, one due-day at a time: it
// pops the earliest due-day, checks its links on at most
// Config.Checkers goroutines with the mutex released, applies the
// outcomes, runs the repairs they queue in order, and repeats. Once
// the monitor is closing it starts no further check or repair and
// applies nothing.
func (m *Monitor) settle(horizon simclock.Day) error {
	m.run.Lock()
	defer m.run.Unlock()
	ctx := context.Background()
	for {
		if err := m.lock(); err != nil {
			return err
		}
		jobs := m.popDue(horizon)
		m.mu.Unlock()
		if len(jobs) == 0 {
			return nil
		}
		res := make([]CheckResult, len(jobs))
		core.ParallelFor(len(jobs), m.cfg.Checkers, func(i int) {
			if !m.closing() {
				res[i] = m.cfg.Checker.Check(ctx, jobs[i].url, jobs[i].day)
			}
		})
		if err := m.lock(); err != nil {
			return err
		}
		repairs := m.apply(jobs, res)
		m.mu.Unlock()
		edited := int64(0)
		for _, job := range repairs {
			for _, title := range job.titles {
				if m.closing() {
					return ErrClosed
				}
				if ok, err := m.cfg.Repairer.ScanLink(ctx, title, job.url, job.day); err == nil && ok {
					edited++
				}
			}
		}
		m.mu.Lock()
		m.repairsEdited += edited
		m.mu.Unlock()
	}
}

// popDue takes every link due on the earliest pending check day, if
// that day is within horizon, sorted by URL. Checks execute at that
// scheduled day (never before the present): during an Advance the
// simulated web is queried as of each due day in turn, not as of the
// target.
func (m *Monitor) popDue(horizon simclock.Day) []checkJob {
	if len(m.due) == 0 || m.due[0].nextCheck.After(horizon) {
		return nil
	}
	day := max(m.due[0].nextCheck, m.clock.Now())
	var jobs []checkJob
	for len(m.due) > 0 && !m.due[0].nextCheck.After(day) {
		ls := heap.Pop(&m.due).(*linkState)
		jobs = append(jobs, checkJob{url: ls.url, day: day})
	}
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].url < jobs[j].url })
	return jobs
}

// apply records one due-day's outcomes in URL order, so journal
// sequence numbers do not depend on worker scheduling, and returns the
// repairs its flips to dead ask for.
func (m *Monitor) apply(jobs []checkJob, res []CheckResult) []repairJob {
	m.checksExecuted += int64(len(jobs))
	var repairs []repairJob
	for i, j := range jobs {
		ls, ok := m.links[j.url]
		if !ok {
			continue // unwatched while its check ran
		}
		r := res[i]
		old := ls.verdict
		ls.verdict, ls.category, ls.suspect, ls.lastChecked = r.Verdict, r.Category, r.Suspect, j.day
		ls.nextCheck = j.day.Add(m.cfg.TTLDays)
		if r.RecheckAt.Valid() && r.RecheckAt.After(j.day) && r.RecheckAt.Before(ls.nextCheck) {
			ls.nextCheck = r.RecheckAt
		}
		if ls.heapIdx >= 0 {
			// Unwatched and watched again while its check ran.
			heap.Fix(&m.due, ls.heapIdx)
		} else {
			heap.Push(&m.due, ls)
		}
		m.checksScheduled++

		// unknown→X is initial state, not a flip: only transitions
		// between settled verdicts are journaled and broadcast.
		if old != VerdictUnknown && old != ls.verdict {
			repairs = append(repairs, m.recordFlip(ls, old, j.day)...)
		}
	}
	return repairs
}

func (m *Monitor) recordFlip(ls *linkState, old Verdict, day simclock.Day) []repairJob {
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
	if ls.verdict != VerdictDead || m.cfg.Repairer == nil || len(arts) == 0 {
		return nil
	}
	m.repairsQueued += int64(len(arts))
	return []repairJob{{url: ls.url, titles: arts, day: day}}
}

func (m *Monitor) broadcast(ev Event) {
	for id, sub := range m.subs {
		select {
		case sub.ch <- ev:
		default:
			// Bounded buffer full: drop and flag the slow consumer
			// rather than ever blocking a check's caller.
			sub.sub.dropped.Store(true)
			close(sub.ch)
			delete(m.subs, id)
			m.subsDropped++
		}
	}
}

func (m *Monitor) ensureLink(url, article string, explicit bool, due simclock.Day) {
	if url == "" {
		return
	}
	ls, ok := m.links[url]
	if !ok {
		ls = &linkState{
			url: url, verdict: VerdictUnknown, nextCheck: max(due, m.clock.Now()),
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
}

// --- public API ---

// Watch starts watching the requested links and articles, then blocks
// until every link due by now — the newly watched ones among them —
// has been checked (or ctx ends). Initial verdicts are state, not
// flips: nothing is journaled or broadcast for them. It returns how
// many links are newly watched.
func (m *Monitor) Watch(ctx context.Context, req WatchRequest) (int, error) {
	if err := m.lock(); err != nil {
		return 0, err
	}
	before := len(m.links)
	now := m.clock.Now()
	for _, u := range req.URLs {
		m.ensureLink(u, "", true, now)
	}
	for title, urls := range req.Articles {
		m.watchedArticles[title] = struct{}{}
		for _, u := range urls {
			m.ensureLink(u, title, false, now)
		}
	}
	added := len(m.links) - before
	m.wg.Add(1)
	m.mu.Unlock()

	done := make(chan error, 1)
	go func() {
		defer m.wg.Done()
		done <- m.settle(now)
	}()
	select {
	case err := <-done:
		return added, err
	case <-ctx.Done():
		return added, ctx.Err()
	case <-m.quit:
		return added, ErrClosed
	}
}

// Unwatch stops watching the named links and articles. Article URL
// lists in the request are ignored; current membership is used.
func (m *Monitor) Unwatch(req WatchRequest) error {
	if err := m.lock(); err != nil {
		return err
	}
	defer m.mu.Unlock()
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
	return nil
}

// Advance moves the simulated clock forward n days, synchronously
// executing every re-check that falls due in the window (each at its
// scheduled day) and the repairs they trigger. It returns the new
// current day. Advance(0) flushes pending feed events and already-due
// checks without moving time.
func (m *Monitor) Advance(days int) (simclock.Day, error) {
	if days < 0 {
		return m.clock.Now(), fmt.Errorf("monitor: cannot advance %d days", days)
	}
	if err := m.lock(); err != nil {
		return m.clock.Now(), err
	}
	if m.advancing {
		m.mu.Unlock()
		return m.clock.Now(), errors.New("monitor: advance already in progress")
	}
	m.advancing = true
	target := m.clock.Now().Add(days)
	m.wg.Add(1)
	m.mu.Unlock()
	defer m.wg.Done()

	err := m.settle(target)
	if err == nil {
		err = m.clock.AdvanceTo(target)
	}
	m.mu.Lock()
	m.advancing = false
	m.mu.Unlock()
	return m.clock.Now(), err
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
// *journal.TruncatedError rather than silently skipping them; a cursor
// past the journal's last seq fails with a *journal.AheadError. A
// negative lastSeq waives the contract — the subscription replays
// whatever history is still retained and continues live (the shape a
// first-time subscriber with no cursor wants).
func (m *Monitor) Subscribe(lastSeq int64) (*Subscription, error) {
	if err := m.lock(); err != nil {
		return nil, err
	}
	defer m.mu.Unlock()
	if len(m.subs) >= m.cfg.MaxSubscribers {
		return nil, ErrTooManySubscribers
	}
	// Replay, not After: a cursor older than the journal's in-memory
	// window must come back from the file sink or fail loudly
	// (TruncatedError), never silently skip flips. A negative cursor
	// is the no-contract subscribe: retained history only.
	var backlog []journal.Entry
	var err error
	if lastSeq < 0 {
		backlog = m.jrnl.After(0)
	} else if backlog, err = m.jrnl.Replay(lastSeq); err != nil {
		return nil, err
	}
	id := m.nextSubID
	m.nextSubID++
	evCh := make(chan Event, m.cfg.SubscriberBuffer)
	s := &Subscription{ID: id, Replay: backlog, Events: evCh}
	m.subs[id] = &subscriber{ch: evCh, sub: s}
	return s, nil
}

// Unsubscribe closes a subscription. Safe to call for already-dropped
// IDs.
func (m *Monitor) Unsubscribe(id int) {
	if m.lock() != nil {
		return
	}
	defer m.mu.Unlock()
	if sub, ok := m.subs[id]; ok {
		close(sub.ch)
		delete(m.subs, id)
	}
}

// Watched returns a snapshot of all watched links, sorted by URL.
func (m *Monitor) Watched() ([]LinkStatus, error) {
	if err := m.lock(); err != nil {
		return nil, err
	}
	out := make([]LinkStatus, 0, len(m.links))
	for _, ls := range m.links {
		out = append(out, ls.status())
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out, nil
}

// Stats returns a snapshot of monitor counters.
func (m *Monitor) Stats() (Stats, error) {
	if err := m.lock(); err != nil {
		return Stats{}, err
	}
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
	m.mu.Unlock()
	if f := m.cfg.Feed; f != nil {
		st.FeedSeen = f.Seen()
		st.FeedDropped = f.Dropped()
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
