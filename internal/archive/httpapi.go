package archive

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"permadead/internal/simclock"
	"permadead/internal/urlutil"
)

// HTTP faces of the archive, mirroring the two real services the study
// and IABot consume:
//
//   - GET /wayback/available?url=U&timestamp=YYYYMMDD — the Wayback
//     Availability API [https://archive.org/help/wayback_api.php]:
//     returns the closest archived snapshot as JSON.
//   - GET /cdx/search/cdx?url=U&output=json[&matchType=prefix|host]
//     [&filter=statuscode:200][&limit=N] — the CDX server API:
//     returns index rows as a JSON array-of-arrays, first row the
//     field names, exactly like the real server's output=json mode.
//
// Handler serves both under one mux so a simulated "archive.org" can
// be mounted next to the simulated web.

// Handler returns an http.Handler exposing the archive's APIs. The CDX
// endpoint reads the index, so it needs a frozen archive.
func (a *Archive) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/wayback/available", a.handleAvailable)
	mux.HandleFunc("/cdx/search/cdx", a.handleCDX)
	return mux
}

// availableResponse mirrors the real API's JSON shape.
type availableResponse struct {
	URL               string            `json:"url"`
	ArchivedSnapshots archivedSnapshots `json:"archived_snapshots"`
}

type archivedSnapshots struct {
	Closest *closestSnapshot `json:"closest,omitempty"`
}

type closestSnapshot struct {
	Status    string `json:"status"`
	Available bool   `json:"available"`
	URL       string `json:"url"`
	Timestamp string `json:"timestamp"`
}

func (a *Archive) handleAvailable(w http.ResponseWriter, r *http.Request) {
	url := r.URL.Query().Get("url")
	if url == "" {
		http.Error(w, `{"error":"missing url parameter"}`, http.StatusBadRequest)
		return
	}
	want := simclock.StudyTime
	if ts := r.URL.Query().Get("timestamp"); ts != "" {
		d, err := simclock.ParseTimestamp(ts)
		if err != nil {
			http.Error(w, `{"error":"malformed timestamp"}`, http.StatusBadRequest)
			return
		}
		want = d
	}

	resp := availableResponse{URL: url}
	// The real availability API only reports snapshots it considers
	// usable (2xx/3xx); the study's stricter initial-200 filtering
	// happens client-side, as IABot's does.
	snap, ok := a.Closest(url, want, func(s Snapshot) bool {
		return s.InitialStatus < 400
	})
	if ok {
		resp.ArchivedSnapshots.Closest = &closestSnapshot{
			Status:    strconv.Itoa(snap.InitialStatus),
			Available: true,
			URL:       snap.WaybackURL(),
			Timestamp: snap.Day.Timestamp(),
		}
	}
	writeJSON(w, resp)
}

func (a *Archive) handleCDX(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	target := q.Get("url")
	if target == "" {
		http.Error(w, "missing url parameter", http.StatusBadRequest)
		return
	}
	if q.Get("output") != "json" {
		http.Error(w, "only output=json is supported", http.StatusBadRequest)
		return
	}

	cq := CDXQuery{Host: urlutil.Hostname(normalizeCDXTarget(target))}
	switch q.Get("matchType") {
	case "host", "domain":
		// Whole host (domain matching collapses to host here).
	case "prefix":
		cq.PathPrefix = dirOfTarget(target)
	default:
		// Exact URL: restrict to the URL's own path.
		cq.PathPrefix = pathQueryOf(normalizeCDXTarget(target))
	}
	if f := q.Get("filter"); f != "" {
		if !strings.HasPrefix(f, "statuscode:") {
			http.Error(w, "only statuscode filters are supported", http.StatusBadRequest)
			return
		}
		code, err := strconv.Atoi(strings.TrimPrefix(f, "statuscode:"))
		if err != nil {
			http.Error(w, "malformed statuscode filter", http.StatusBadRequest)
			return
		}
		cq.Status = code
	}
	if l := q.Get("limit"); l != "" {
		n, err := strconv.Atoi(l)
		if err != nil || n < 0 {
			http.Error(w, "malformed limit", http.StatusBadRequest)
			return
		}
		cq.Limit = n
	}

	rows := [][]string{{"urlkey", "timestamp", "original", "statuscode"}}
	for _, e := range a.CDXList(cq) {
		rows = append(rows, []string{
			urlutil.SchemeAgnosticKey(e.URL),
			e.Day.Timestamp(),
			e.URL,
			strconv.Itoa(e.InitialStatus),
		})
	}
	writeJSON(w, rows)
}

// normalizeCDXTarget accepts bare host/path targets the way the real
// CDX server does (scheme optional).
func normalizeCDXTarget(t string) string {
	if strings.HasPrefix(t, "http://") || strings.HasPrefix(t, "https://") {
		return t
	}
	return "http://" + t
}

func dirOfTarget(t string) string {
	pq := pathQueryOf(normalizeCDXTarget(t))
	if i := strings.IndexAny(pq, "?#"); i >= 0 {
		pq = pq[:i]
	}
	if !strings.HasSuffix(pq, "/") {
		if i := strings.LastIndexByte(pq, '/'); i >= 0 {
			pq = pq[:i+1]
		}
	}
	return pq
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	if err := enc.Encode(v); err != nil {
		// Headers are already out; nothing more to do than log-style
		// reporting in the body.
		fmt.Fprintf(w, `{"error":%q}`, err.Error())
	}
}
