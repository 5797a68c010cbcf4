package simweb

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"

	"permadead/internal/simclock"
)

// DayHeader lets a single transport serve requests "as of" different
// simulated days: when present on a request, it overrides the
// transport's fixed day. The header is consumed by the transport (and
// by Server) and never reaches response generation.
const DayHeader = "X-Sim-Day"

// AttemptHeader carries the retry attempt number (0 = first try) into
// transient-fault evaluation: each attempt re-rolls the site's fault
// schedule, so a retrying client can succeed on a later attempt within
// the same simulated day. Like DayHeader it is consumed by the
// transport (and by Server) and never reaches response generation.
const AttemptHeader = "X-Sim-Attempt"

// Transport is an http.RoundTripper that answers requests from the
// world without touching the network. It synthesizes the same error
// types a real *http.Transport would surface — *net.DNSError for
// resolution failures and a net.Error with Timeout()==true for
// connection timeouts — so client code cannot tell the difference.
type Transport struct {
	World *World
	// At is the simulated day requests are evaluated at, unless the
	// request carries DayHeader.
	At simclock.Day
	// NoFaults bypasses transient-fault injection for every request on
	// this transport (ground-truth readers, ablation baselines).
	NoFaults bool
}

// NewTransport returns a Transport pinned to the given day.
func NewTransport(w *World, at simclock.Day) *Transport {
	return &Transport{World: w, At: at}
}

// NewFaultFreeTransport returns a Transport pinned to the given day
// that never observes transient faults.
func NewFaultFreeTransport(w *World, at simclock.Day) *Transport {
	return &Transport{World: w, At: at, NoFaults: true}
}

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if err := req.Context().Err(); err != nil {
		return nil, err
	}
	day := t.At
	if h := req.Header.Get(DayHeader); h != "" {
		n, err := strconv.Atoi(h)
		if err != nil {
			return nil, fmt.Errorf("simweb: bad %s header %q: %w", DayHeader, h, err)
		}
		day = simclock.Day(n)
	}

	attempt := 0
	if t.NoFaults {
		attempt = NoFaultAttempt
	} else if h := req.Header.Get(AttemptHeader); h != "" {
		n, err := strconv.Atoi(h)
		if err != nil {
			return nil, fmt.Errorf("simweb: bad %s header %q: %w", AttemptHeader, h, err)
		}
		attempt = n
	}

	host := req.URL.Hostname()
	pq := req.URL.EscapedPath()
	if pq == "" {
		pq = "/"
	}
	if req.URL.RawQuery != "" {
		pq += "?" + req.URL.RawQuery
	}

	res, site, page := t.World.resolve(host, pq, day, attempt)
	switch res.Kind {
	case KindDNSFailure:
		return nil, &net.DNSError{
			Err:        "no such host",
			Name:       host,
			IsNotFound: true,
		}
	case KindTimeout:
		// Respect an already-cancelled context the way a hanging dial
		// would; otherwise produce a synthetic i/o timeout.
		if err := req.Context().Err(); err != nil {
			return nil, err
		}
		return nil, &timeoutError{addr: dialAddr(req)}
	}

	return buildResponse(req, res, &lazyBody{site: site, page: page, rest: res.Body}), nil
}

// lazyBody is every simulated response's body. A live page renders on
// the first Read, so a status-only check (IABot's, §2.1) that closes it
// unread never builds the document; other bodies arrive built, in rest.
// A first Read whose buffer holds the whole page (fetch's always does)
// renders straight into it; any other reader gets the page in rest.
type lazyBody struct {
	site *Site
	page *Page // nil once rendered, or when rest was prebuilt
	size int   // the page's length, while page is set
	rest string
}

func (b *lazyBody) Read(dst []byte) (int, error) {
	if b.page != nil {
		s, p := b.site, b.page
		b.page = nil
		if len(dst) >= b.size {
			return len(appendPageBody(dst[:0], s, p)), nil
		}
		b.rest = pageBody(s, p)
	}
	if b.rest == "" {
		return 0, io.EOF
	}
	n := copy(dst, b.rest)
	b.rest = b.rest[n:]
	return n, nil
}

func (b *lazyBody) Close() error { *b = lazyBody{}; return nil }

// dialAddr reconstructs the host:port a real dialer would have been
// connecting to, defaulting the port from the request's scheme.
func dialAddr(req *http.Request) string {
	host := req.URL.Hostname()
	port := req.URL.Port()
	if port == "" {
		if schemeOf(req) == "https" {
			port = "443"
		} else {
			port = "80"
		}
	}
	return net.JoinHostPort(host, port)
}

// buildResponse assembles an *http.Response from a Result and its body.
func buildResponse(req *http.Request, res Result, body *lazyBody) *http.Response {
	// Headers describe the full entity; real servers answer HEAD with
	// the GET entity's Content-Length and an empty body.
	n := len(body.rest)
	if body.page != nil {
		n = pageBodyLen(body.site, body.page)
		body.size = n
	}
	ct := res.ContentType
	if ct == "" {
		ct = "text/html; charset=utf-8"
	}
	// The keys are written canonical, as Header.Set would store them.
	h := http.Header{
		"Content-Type":   {ct},
		"Content-Length": {strconv.Itoa(n)},
	}
	if res.Location != "" {
		h["Location"] = []string{ResolveLocation(schemeOf(req), req.URL.Host, res.Location)}
	}
	if res.RetryAfterSec > 0 {
		h["Retry-After"] = []string{strconv.Itoa(res.RetryAfterSec)}
	}
	if req.Method == http.MethodHead {
		body.Close()
	}
	status, ok := statusLines[res.Status]
	if !ok {
		status = strconv.Itoa(res.Status) + " " + http.StatusText(res.Status)
	}
	return &http.Response{
		Status:        status,
		StatusCode:    res.Status,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        h,
		Body:          body,
		ContentLength: int64(n),
		Request:       req,
	}
}

// statusLines are the status lines of the codes the world answers with:
// strconv.Itoa(code) + " " + http.StatusText(code), spelled out.
var statusLines = map[int]string{200: "200 OK", 301: "301 Moved Permanently", 302: "302 Found",
	402: "402 Payment Required", 403: "403 Forbidden", 404: "404 Not Found",
	429: "429 Too Many Requests", 503: "503 Service Unavailable"}

func schemeOf(req *http.Request) string {
	if req.URL.Scheme != "" {
		return req.URL.Scheme
	}
	return "http"
}

// timeoutError mimics the error a net.Conn read deadline produces.
// addr is the host:port the dial targeted (port derived from the
// request's scheme, so https requests read ":443" as a real dialer's
// error would).
type timeoutError struct{ addr string }

func (e *timeoutError) Error() string {
	return "dial tcp " + e.addr + ": i/o timeout"
}
func (e *timeoutError) Timeout() bool   { return true }
func (e *timeoutError) Temporary() bool { return true }

// Ensure timeoutError satisfies net.Error at compile time.
var _ net.Error = (*timeoutError)(nil)

// Client returns an *http.Client over this transport that does not
// follow redirects automatically (callers that want redirect-following
// set their own CheckRedirect), matching the fetch package's needs.
func (t *Transport) Client() *http.Client {
	return &http.Client{Transport: t}
}
