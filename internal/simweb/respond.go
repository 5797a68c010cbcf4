package simweb

import (
	"net/url"
	"strings"

	"permadead/internal/simclock"
)

// Result is the outcome of one simulated request, before any redirect
// following. Exactly one of the Kind values applies.
type Result struct {
	Kind ResultKind
	// Status and Body are set for KindResponse.
	Status int
	Body   string
	// Location is the redirect target (absolute or host-relative) for
	// 3xx responses.
	Location string
	// ContentType of the body; defaults to text/html.
	ContentType string
	// RetryAfterSec, when positive, is the Retry-After header value
	// (in seconds) accompanying 503/429 fault responses.
	RetryAfterSec int
}

// ResultKind classifies the transport-level outcome of a request.
type ResultKind uint8

const (
	// KindResponse means an HTTP response was produced (any status).
	KindResponse ResultKind = iota
	// KindDNSFailure means hostname resolution failed.
	KindDNSFailure
	// KindTimeout means the connection attempt hung until the
	// client's deadline.
	KindTimeout
)

// Get evaluates an HTTP GET for rawURL on the given day and returns
// the single-hop result: redirects are NOT followed here — that is the
// client's job, exactly as on the real web.
func (w *World) Get(rawURL string, day simclock.Day) Result {
	return w.GetAttempt(rawURL, day, 0)
}

// GetAttempt is Get with an explicit attempt number for transient-
// fault evaluation: attempt 0 is the first try, higher numbers are
// retries (each re-rolls the fault schedule), and NoFaultAttempt
// bypasses fault injection entirely.
func (w *World) GetAttempt(rawURL string, day simclock.Day, attempt int) Result {
	u, err := url.Parse(strings.TrimSpace(rawURL))
	if err != nil || u.Host == "" {
		// An unparseable URL can never resolve.
		return Result{Kind: KindDNSFailure}
	}
	host := strings.ToLower(u.Hostname())
	pq := u.EscapedPath()
	if pq == "" {
		pq = "/"
	}
	if u.RawQuery != "" {
		pq += "?" + u.RawQuery
	}
	return w.GetPathAttempt(host, pq, day, attempt)
}

// GetPathAttempt is GetAttempt for an already-split hostname and
// path?query string.
func (w *World) GetPathAttempt(host, pathQuery string, day simclock.Day, attempt int) Result {
	res, s, p := w.resolve(host, pathQuery, day, attempt)
	if p != nil {
		res.Body = pageBody(s, p)
	}
	return res
}

// resolve is GetPathAttempt short of rendering: a live page's own 200
// comes back as the page and its site, Body unset until someone reads it.
func (w *World) resolve(host, pathQuery string, day simclock.Day, attempt int) (Result, *Site, *Page) {
	s := w.Site(host)
	if !s.resolves(day) {
		return Result{Kind: KindDNSFailure}, nil, nil
	}

	// Transient faults fire at the edge — resolver flap, overloaded
	// front end — before the origin's own lifecycle state is consulted.
	if len(s.Faults) > 0 {
		if fw, ok := s.faultAt(day, attempt); ok {
			return faultResult(s, fw), nil, nil
		}
	}

	// Server-level states, in precedence order. A host whose server
	// hangs does so before any HTTP exchange; parking replaces all
	// content; outages and geo-blocks produce HTTP errors.
	if s.TimeoutFrom.Valid() && !day.Before(s.TimeoutFrom) {
		return Result{Kind: KindTimeout}, nil, nil
	}
	if s.ParkedAt.Valid() && !day.Before(s.ParkedAt) {
		return okResult(parkedBody(s)), nil, nil
	}
	if s.OutageFrom.Valid() && !day.Before(s.OutageFrom) &&
		(!s.OutageTo.Valid() || day.Before(s.OutageTo)) {
		return Result{Kind: KindResponse, Status: 503, Body: outageBody(s)}, nil, nil
	}
	if s.GeoBlockedFrom.Valid() && !day.Before(s.GeoBlockedFrom) {
		return Result{Kind: KindResponse, Status: 403, Body: geoBlockBody(s)}, nil, nil
	}

	pathQuery = normalizePath(pathQuery)
	w.mu.RLock()
	p := s.pages[pathQuery]
	w.mu.RUnlock()

	switch {
	case p == nil || day.Before(p.Created):
		return w.errorResult(s, pathQuery, day), nil, nil
	case p.DeletedAt.Valid() && !day.Before(p.DeletedAt) &&
		!(p.RestoredAt.Valid() && !day.Before(p.RestoredAt)):
		return w.errorResult(s, pathQuery, day), nil, nil
	case p.MovedAt.Valid() && !day.Before(p.MovedAt):
		redirectActive := p.RedirectFrom.Valid() && !day.Before(p.RedirectFrom) &&
			!(p.RedirectUntil.Valid() && !day.Before(p.RedirectUntil))
		if redirectActive {
			return Result{
				Kind:     KindResponse,
				Status:   301,
				Location: p.NewPath,
				Body:     redirectBody(p.NewPath),
			}, nil, nil
		}
		return w.errorResult(s, pathQuery, day), nil, nil
	default:
		return okResult(""), s, p
	}
}

// errorResult applies the site's error style (as of day) to a missing
// path.
func (w *World) errorResult(s *Site, pathQuery string, day simclock.Day) Result {
	switch s.errorStyleAt(day) {
	case SoftRedirectHome:
		if pathQuery == "/" {
			// The homepage itself is missing (e.g. deleted): avoid a
			// redirect loop by answering the soft error body directly.
			return okResult(softErrorBody(s))
		}
		return Result{Kind: KindResponse, Status: 302, Location: "/", Body: redirectBody("/")}
	case Soft200:
		return okResult(softErrorBody(s))
	case LoginRedirect:
		lp := s.loginPath()
		if pathQuery == lp {
			return okResult(loginBody(s))
		}
		return Result{Kind: KindResponse, Status: 302, Location: lp, Body: redirectBody(lp)}
	default: // Hard404
		return Result{Kind: KindResponse, Status: 404, Body: notFoundBody(s, pathQuery)}
	}
}

func okResult(body string) Result {
	return Result{Kind: KindResponse, Status: 200, Body: body}
}

// ResolveLocation turns a Result's Location into an absolute URL given
// the request's scheme and host, mirroring what an HTTP client does
// with a Location header.
func ResolveLocation(scheme, host, location string) string {
	if strings.HasPrefix(location, "http://") || strings.HasPrefix(location, "https://") {
		return location
	}
	if !strings.HasPrefix(location, "/") {
		location = "/" + location
	}
	return scheme + "://" + host + location
}
