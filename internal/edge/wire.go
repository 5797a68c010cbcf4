package edge

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
)

// ErrorEnvelope is the one error shape every endpoint of both binaries
// speaks:
//
//	{"error":{"code":"overloaded","message":"..."}}
type ErrorEnvelope struct {
	Error ErrorBody `json:"error"`
}

type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

const jsonContentType = "application/json; charset=utf-8"

// WriteError answers with the error envelope. Every 503 is retryable,
// so it carries Retry-After: 1 unless the caller already set one.
func WriteError(w http.ResponseWriter, status int, code, format string, args ...any) {
	h := w.Header()
	h.Set("Content-Type", jsonContentType)
	if status == http.StatusServiceUnavailable && h.Get("Retry-After") == "" {
		h.Set("Retry-After", "1")
	}
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(ErrorEnvelope{ //nolint:errcheck // headers are out
		Error: ErrorBody{Code: code, Message: fmt.Sprintf(format, args...)},
	})
}

// WriteJSON answers 200 with v rendered as JSON.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", jsonContentType)
	json.NewEncoder(w).Encode(v) //nolint:errcheck
}

// StatusClientClosedRequest is nginx's non-standard 499: the client
// went away before we could answer. It keeps client-side aborts in the
// 4xx class so they don't pollute server-error (5xx) accounting.
const StatusClientClosedRequest = 499

// Error is a failure that already knows its envelope: a single-link
// endpoint maps it to an HTTP status, a batch endpoint renders it as an
// NDJSON error line.
type Error struct {
	Status int
	Code   string
	Msg    string
}

func (e *Error) Error() string { return e.Msg }

// ErrorParts maps any handler-level failure to (status, code, message)
// for the envelope: deadline exhaustion becomes 504, a client
// disconnect becomes 499 (a 4xx — the server did nothing wrong), an
// *Error carries its own mapping, everything else is 500.
func ErrorParts(err error) (int, string, string) {
	var e *Error
	switch {
	case errors.As(err, &e):
		return e.Status, e.Code, e.Msg
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "deadline", fmt.Sprintf("request deadline exceeded: %v", err)
	case errors.Is(err, context.Canceled):
		return StatusClientClosedRequest, "client_closed_request", fmt.Sprintf("client closed request: %v", err)
	}
	return http.StatusInternalServerError, "internal", err.Error()
}

// WriteFailure answers with err's ErrorParts mapping.
func WriteFailure(w http.ResponseWriter, err error) {
	status, code, msg := ErrorParts(err)
	WriteError(w, status, code, "%s", msg)
}

// maxBodyBytes bounds any posted request body; at the MaxBatchLinks
// cap and generous URL lengths this is far above any legitimate request.
const maxBodyBytes = 32 << 20

// DecodeBody decodes the JSON request body into v. On failure it has
// answered 400 bad_body and returns false.
func DecodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v); err != nil {
		WriteError(w, http.StatusBadRequest, "bad_body", "decoding request body: %v", err)
		return false
	}
	return true
}

// MaxBatchLinks bounds how many URLs one bulk-classify request may
// carry, on a shard and through the router alike; a larger batch is
// answered 413.
const MaxBatchLinks = 10000

// DecodeBatch reads a bulk-classify request, {"urls": ["http://...",
// ...]} with 1..MaxBatchLinks entries. On failure it has answered and
// returns false.
func DecodeBatch(w http.ResponseWriter, r *http.Request) ([]string, bool) {
	var req struct {
		URLs []string `json:"urls"`
	}
	switch {
	case !DecodeBody(w, r, &req):
	case len(req.URLs) == 0:
		WriteError(w, http.StatusBadRequest, "empty_batch", `body must carry a non-empty "urls" array`)
	case len(req.URLs) > MaxBatchLinks:
		WriteError(w, http.StatusRequestEntityTooLarge, "batch_too_large",
			"%d urls exceeds the %d-link batch bound; split the request", len(req.URLs), MaxBatchLinks)
	default:
		return req.URLs, true
	}
	return nil, false
}

// SampleWindow is the /v1/sample request: N links starting at Offset of
// the population, optionally with each link's citing article.
type SampleWindow struct {
	N, Offset int
	Articles  bool
}

// ParseSampleWindow reads ?n= (default 100, at least 1), ?offset=
// (default 0) and ?articles=. On failure it has answered 400 and
// returns false.
func ParseSampleWindow(w http.ResponseWriter, r *http.Request) (SampleWindow, bool) {
	q := r.URL.Query()
	win := SampleWindow{N: 100, Articles: q.Get("articles") == "1" || q.Get("articles") == "true"}
	atLeast := func(name, code string, lo int, dst *int) bool {
		v := q.Get(name)
		if v == "" {
			return true
		}
		n, err := strconv.Atoi(v)
		if err != nil || n < lo {
			WriteError(w, http.StatusBadRequest, code, "malformed %s %q", name, v)
			return false
		}
		*dst = n
		return true
	}
	return win, atLeast("n", "bad_n", 1, &win.N) && atLeast("offset", "bad_offset", 0, &win.Offset)
}

// SampleResponse is the /v1/sample answer: a window of the served link
// population. The router's merged answer embeds it.
type SampleResponse struct {
	Total  int      `json:"total"`
	Offset int      `json:"offset"`
	Count  int      `json:"count"`
	URLs   []string `json:"urls"`
	// Articles, present with ?articles=1, carries each URL's citing
	// article title, index-aligned with URLs — what a stream driver
	// needs to build /v1/watch requests.
	Articles []string `json:"articles,omitempty"`
}

// ErrLine renders the NDJSON shape of a per-link batch failure: the
// error envelope plus the URL, so an out-of-band reader can still pair
// lines with inputs.
func ErrLine(url, code, msg string) []byte {
	line, _ := json.Marshal(struct { //nolint:errcheck // a struct of strings cannot fail
		URL   string    `json:"url"`
		Error ErrorBody `json:"error"`
	}{url, ErrorBody{Code: code, Message: msg}})
	return append(line, '\n')
}

// LineWriter returns the emit and idle functions of a
// core.StreamOrderedIdle that streams NDJSON to w: emit appends a line
// to w's buffer, flush sends what has gathered. The emitter flushes
// whenever it is about to wait, so a client reads line i while line
// i+k is still being produced, and lines that are ready together share
// one write.
func LineWriter(w http.ResponseWriter) (emit func(i int, line []byte) error, flush func()) {
	emit = func(_ int, line []byte) error {
		_, err := w.Write(line)
		return err
	}
	if flusher, ok := w.(http.Flusher); ok {
		return emit, flusher.Flush
	}
	return emit, func() {}
}
