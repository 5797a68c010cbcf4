package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"permadead/internal/edge"
	"permadead/internal/journal"
	"permadead/internal/monitor"
)

// This file is the HTTP face of the continuous verdict monitor:
// watch management, the warm verdict table, the SSE flip stream, and
// the simulation drivers (clock tick, wiki edit, article inspection)
// that let external load generators and smoke tests move the world.

// monitored guards a monitor endpoint: with the monitor disabled the
// route answers 404 instead of running h.
func (s *Server) monitored(h http.HandlerFunc) http.HandlerFunc {
	if s.mon != nil {
		return h
	}
	return func(w http.ResponseWriter, _ *http.Request) {
		edge.WriteError(w, http.StatusNotFound, "monitor_disabled",
			"the continuous monitor is disabled on this server (-no-monitor)")
	}
}

// writeMonitorError maps monitor API failures onto the error envelope:
// a closed monitor and a full subscriber table are both retryable 503s
// (the server is shutting down, or the client should back off; every
// 503 envelope carries Retry-After), and an in-progress advance is a
// 409 — the caller raced another tick.
func writeMonitorError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, monitor.ErrClosed):
		edge.WriteError(w, http.StatusServiceUnavailable, "monitor_closed", "%v", err)
	case errors.Is(err, monitor.ErrTooManySubscribers):
		edge.WriteError(w, http.StatusServiceUnavailable, "too_many_subscribers", "%v", err)
	default:
		edge.WriteError(w, http.StatusConflict, "monitor", "%v", err)
	}
}

// --- /v1/watch ---

type watchRequestBody struct {
	URLs     []string `json:"urls"`
	Articles []string `json:"articles"`
	Remove   bool     `json:"remove"`
}

type watchResponse struct {
	// Added counts links newly added to the watch table (0 on remove).
	Added        int    `json:"added"`
	Removed      bool   `json:"removed,omitempty"`
	WatchedLinks int    `json:"watched_links"`
	Date         string `json:"date"`
}

// handleWatch adds links and/or articles to the monitor's watch table
// (remove=true takes them out). Article titles are resolved to their
// current revision's external links here, once; afterwards the monitor
// follows membership changes from the live edit feed. The call returns
// after every newly watched link has its initial verdict, so a
// follow-up /v1/watched read is never a table of unknowns.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	var body watchRequestBody
	if !edge.DecodeBody(w, r, &body) {
		return
	}
	if len(body.URLs) == 0 && len(body.Articles) == 0 {
		edge.WriteError(w, http.StatusBadRequest, "empty_watch", `body must name "urls" and/or "articles"`)
		return
	}
	req := monitor.WatchRequest{URLs: body.URLs}
	if len(body.Articles) > 0 {
		req.Articles = make(map[string][]string, len(body.Articles))
		for _, title := range body.Articles {
			art := s.wiki.Article(title)
			if art == nil {
				edge.WriteError(w, http.StatusNotFound, "unknown_article", "no article titled %q", title)
				return
			}
			if body.Remove {
				req.Articles[title] = nil // membership is looked up, not trusted
				continue
			}
			req.Articles[title] = art.Current().Doc().ExternalURLs()
		}
	}

	resp := watchResponse{Date: s.mon.Day().String()}
	if body.Remove {
		if err := s.mon.Unwatch(req); err != nil {
			writeMonitorError(w, err)
			return
		}
		resp.Removed = true
	} else {
		added, err := s.mon.Watch(r.Context(), req)
		if err != nil {
			writeMonitorError(w, err)
			return
		}
		resp.Added = added
	}
	if st, err := s.mon.Stats(); err == nil {
		resp.WatchedLinks = st.Watched
	}
	edge.WriteJSON(w, resp)
}

// --- /v1/watched ---

type watchedResponse struct {
	Date  string               `json:"date"`
	Count int                  `json:"count"`
	Links []monitor.LinkStatus `json:"links"`
}

// handleWatched snapshots the warm verdict table, sorted by URL.
func (s *Server) handleWatched(w http.ResponseWriter, r *http.Request) {
	links, err := s.mon.Watched()
	if err != nil {
		writeMonitorError(w, err)
		return
	}
	edge.WriteJSON(w, watchedResponse{Date: s.mon.Day().String(), Count: len(links), Links: links})
}

// --- /v1/stream/verdicts ---

// parseLastEventID reads the resume cursor: the standard Last-Event-ID
// header (what an EventSource client re-sends on reconnect), with a
// last_event_id query parameter as the curl-friendly spelling. An
// absent cursor returns -1: "no resume contract" — the subscriber gets
// whatever history is retained, leniently — whereas an explicit cursor
// (0 included) demands exactly-once delivery of everything after it
// and fails with 410 when that history is gone.
func parseLastEventID(r *http.Request) (int64, error) {
	v := r.Header.Get("Last-Event-ID")
	if v == "" {
		v = r.URL.Query().Get("last_event_id")
	}
	if v == "" {
		return -1, nil
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("malformed last event id %q (want a non-negative journal seq)", v)
	}
	return n, nil
}

// handleStreamVerdicts serves the verdict-change feed as Server-Sent
// Events: every flip is one "verdict" event whose id is its journal
// sequence number and whose data is the journal entry, flushed to the
// client as it happens. A resume cursor (Last-Event-ID header or
// ?last_event_id=) replays everything after it from the journal, then
// continues live — the seam is atomic in the monitor, so a client that
// reconnects with its last seen id gets every flip exactly once.
//
// The stream holds no admission slot and has no request deadline (it
// is bounded by the monitor's subscriber cap instead). A subscriber that falls a
// full buffer behind is dropped: the stream ends with a final
// "dropped" event telling the client to reconnect with its cursor.
func (s *Server) handleStreamVerdicts(w http.ResponseWriter, r *http.Request) {
	lastSeq, err := parseLastEventID(r)
	if err != nil {
		edge.WriteError(w, http.StatusBadRequest, "bad_last_event_id", "%v", err)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		edge.WriteError(w, http.StatusInternalServerError, "no_flush", "streaming unsupported by this connection")
		return
	}
	sub, err := s.mon.Subscribe(lastSeq)
	if err != nil {
		// A cursor that predates the journal's in-memory window with no
		// file to replay from is permanently unservable: 410 tells the
		// client its cursor is dead and a fresh (cursor-less) subscribe
		// plus its own state resync is the only way forward. Anything
		// else would silently skip the evicted flips.
		var trunc *journal.TruncatedError
		if errors.As(err, &trunc) {
			edge.WriteError(w, http.StatusGone, "replay_gone",
				"cursor %d predates the retained journal window (oldest replayable seq is %d); reconnect without Last-Event-ID and resync",
				trunc.RequestedSeq, trunc.OldestSeq)
			return
		}
		writeMonitorError(w, err)
		return
	}
	defer s.mon.Unsubscribe(sub.ID)

	h := w.Header()
	h.Set("Content-Type", "text/event-stream; charset=utf-8")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	// Replayed events carry no emission stamp: they are history, not
	// deliveries, and must not pollute delivery-latency measurements.
	for _, e := range sub.Replay {
		if s.writeSSE(w, flusher, monitor.Event{Entry: e}) != nil {
			return
		}
	}
	for {
		select {
		case ev, live := <-sub.Events:
			if !live {
				if sub.Dropped() {
					fmt.Fprint(w, "event: dropped\ndata: {\"reason\":\"subscriber fell behind; reconnect with Last-Event-ID\"}\n\n")
					flusher.Flush()
				}
				return // dropped, unsubscribed, or server shutdown
			}
			if s.writeSSE(w, flusher, ev) != nil {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

// writeSSE frames one verdict event and flushes it — per event, so a
// subscriber sees each flip when it happens, not when a buffer fills.
func (s *Server) writeSSE(w http.ResponseWriter, flusher http.Flusher, ev monitor.Event) error {
	if s.testHookStreamWrite != nil {
		s.testHookStreamWrite()
	}
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "id: %d\nevent: verdict\ndata: %s\n\n", ev.Seq, data); err != nil {
		return err
	}
	flusher.Flush()
	return nil
}

// --- /v1/sim/tick ---

type tickResponse struct {
	Date  string        `json:"date"`
	Stats monitor.Stats `json:"stats"`
}

// handleSimTick advances the simulated clock by {"days": n},
// synchronously running every re-check that falls due in the window
// (each at its scheduled day) and the repairs they trigger. The
// response carries the new date and a stats snapshot, so a driver can
// assert on flip counts without a second request.
func (s *Server) handleSimTick(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Days int `json:"days"`
	}
	if !edge.DecodeBody(w, r, &body) {
		return
	}
	if body.Days < 0 {
		edge.WriteError(w, http.StatusBadRequest, "bad_days", "cannot advance %d days", body.Days)
		return
	}
	day, err := s.mon.Advance(body.Days)
	if err != nil {
		writeMonitorError(w, err)
		return
	}
	st, err := s.mon.Stats()
	if err != nil {
		writeMonitorError(w, err)
		return
	}
	edge.WriteJSON(w, tickResponse{Date: day.String(), Stats: st})
}

// --- /v1/sim/edit ---

type editResponse struct {
	Title   string `json:"title"`
	RevID   int    `json:"rev_id"`
	Date    string `json:"date"`
	Created bool   `json:"created,omitempty"`
}

// handleSimEdit applies one wiki edit as of the monitor's current day
// ({"title","user","comment","text"}), creating the article when it
// does not exist. Link additions and removals the edit causes flow to
// the monitor through the event feed, exactly as organic edits do.
func (s *Server) handleSimEdit(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Title   string `json:"title"`
		User    string `json:"user"`
		Comment string `json:"comment"`
		Text    string `json:"text"`
	}
	if !edge.DecodeBody(w, r, &body) {
		return
	}
	if body.Title == "" {
		edge.WriteError(w, http.StatusBadRequest, "missing_title", `body must carry a "title"`)
		return
	}
	if body.User == "" {
		body.User = "SimDriver"
	}
	day := s.mon.Day()
	if s.wiki.Article(body.Title) == nil {
		art := s.wiki.Create(body.Title, day, body.User, body.Text)
		edge.WriteJSON(w, editResponse{Title: body.Title, RevID: art.Current().ID, Date: day.String(), Created: true})
		return
	}
	rev, err := s.wiki.Edit(body.Title, day, body.User, body.Comment, body.Text)
	if err != nil {
		edge.WriteError(w, http.StatusBadRequest, "edit", "%v", err)
		return
	}
	edge.WriteJSON(w, editResponse{Title: body.Title, RevID: rev.ID, Date: rev.Day.String()})
}

// --- /v1/sim/article ---

type articleResponse struct {
	Title     string   `json:"title"`
	RevID     int      `json:"rev_id"`
	Date      string   `json:"date"`
	User      string   `json:"user"`
	Revisions int      `json:"revisions"`
	URLs      []string `json:"urls"`
	Text      string   `json:"text"`
}

// handleSimArticle returns an article's current revision — text,
// external links, and provenance — so drivers can verify what a repair
// pass actually wrote.
func (s *Server) handleSimArticle(w http.ResponseWriter, r *http.Request) {
	title := r.URL.Query().Get("title")
	if title == "" {
		edge.WriteError(w, http.StatusBadRequest, "missing_title", "missing title parameter")
		return
	}
	art := s.wiki.Article(title)
	if art == nil {
		edge.WriteError(w, http.StatusNotFound, "unknown_article", "no article titled %q", title)
		return
	}
	rev := art.Current()
	edge.WriteJSON(w, articleResponse{
		Title: art.Title, RevID: rev.ID, Date: rev.Day.String(), User: rev.User,
		Revisions: len(art.Revisions), URLs: rev.Doc().ExternalURLs(), Text: rev.Text,
	})
}
