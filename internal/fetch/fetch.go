// Package fetch is the study's live-web measurement client. It issues
// HTTP GET requests, follows redirects while recording the full chain,
// and classifies each fetch into the five outcome categories of
// Figure 4: DNS Failure, Timeout, 404, 200, and Other.
//
// The paper distinguishes a URL's *initial* status code (the response
// to the first request, before redirections) from its *final* status
// code (after all redirections, §2.4); Result captures both plus every
// intermediate hop.
package fetch

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
	"unsafe"
)

// Category is the paper's five-way classification of a live fetch.
type Category uint8

const (
	// CatDNSFailure: DNS resolution for the hostname returned an error.
	CatDNSFailure Category = iota
	// CatTimeout: TCP or TLS connection setup (or the request) timed out.
	CatTimeout
	// Cat404: the final status code was 404 (Not Found).
	Cat404
	// Cat200: the final status code was 200 (OK).
	Cat200
	// CatOther: any other final status code (e.g. 403, 503) or
	// transport error.
	CatOther
)

// Categories lists all categories in the order Figure 4 plots them.
var Categories = []Category{CatDNSFailure, CatTimeout, Cat404, Cat200, CatOther}

func (c Category) String() string {
	switch c {
	case CatDNSFailure:
		return "DNS Failure"
	case CatTimeout:
		return "Timeout"
	case Cat404:
		return "404"
	case Cat200:
		return "200"
	case CatOther:
		return "Other"
	default:
		return "Unknown"
	}
}

// Hop is one response in a redirect chain.
type Hop struct {
	URL      string
	Status   int
	Location string
}

// Result is the full outcome of fetching one URL.
type Result struct {
	URL      string
	Category Category
	// InitialStatus is the status code of the first response (0 when
	// no response was received at all).
	InitialStatus int
	// FinalStatus is the status code after all redirections (0 when
	// no final response was received).
	FinalStatus int
	// FinalURL is the URL that produced the final response.
	FinalURL string
	// Redirected reports whether at least one redirect was followed.
	Redirected bool
	// Hops is the redirect chain, ending with the final response.
	Hops []Hop
	// Body is the final response body (possibly truncated to
	// MaxBodyBytes).
	Body string
	// Err is the transport error for DNS/timeout/other failures.
	Err error
	// RetryAfter is the final response's Retry-After advertisement
	// (either the integer-seconds or the HTTP-date form; zero when
	// absent or malformed).
	RetryAfter time.Duration
	// Attempts is the total number of HTTP fetches a Retrier spent on
	// this result, retries and confirmation rechecks included. A bare
	// Client leaves it zero.
	Attempts int
}

// Client fetches URLs and classifies outcomes. The zero value is not
// usable; construct with New.
//
// It calls its RoundTripper directly rather than through an
// http.Client: it follows redirects itself, hop by hop, and sets no
// cookie jar and no client timeout, so the http.Client layer would only
// copy headers. It keeps that layer's contract: transport errors come
// back as *url.Error{Op: "Get"}, URL userinfo becomes basic auth, and
// an unparseable redirect Location fails the fetch before its hop is
// recorded.
type Client struct {
	rt      http.RoundTripper
	timeout time.Duration
	maxBody int64
}

const (
	// maxRedirects bounds the redirect chain, matching net/http's own
	// limit.
	maxRedirects = 10
	// userAgent is the User-Agent header sent on every request.
	userAgent = "permadead-study/1.0 (link-rot measurement)"
)

// Option configures a Client.
type Option func(*Client)

// WithTimeout bounds each fetch end-to-end — the whole redirect chain
// and the body read, as one context deadline. Default 30s; 0 sets none.
func WithTimeout(d time.Duration) Option {
	return func(c *Client) { c.timeout = d }
}

// WithMaxBody bounds how much of the final body is retained. Default 256 KiB.
func WithMaxBody(n int64) Option {
	return func(c *Client) { c.maxBody = n }
}

// New builds a Client over the given transport. Pass a *simweb.Transport
// for simulated fetches or an *http.Transport for real ones.
func New(rt http.RoundTripper, opts ...Option) *Client {
	c := &Client{
		rt:      rt,
		timeout: 30 * time.Second,
		maxBody: 256 << 10,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Fetch GETs rawURL, following redirects up to the configured limit,
// and classifies the outcome.
func (c *Client) Fetch(ctx context.Context, rawURL string) Result {
	return c.FetchWithHeaders(ctx, rawURL, nil)
}

// FetchWithHeaders is Fetch with extra request headers applied to
// every hop — how the Retrier threads the simulation's day and attempt
// annotations through without the Client knowing about them.
func (c *Client) FetchWithHeaders(ctx context.Context, rawURL string, extra http.Header) Result {
	res := Result{URL: rawURL}
	current := rawURL
	if c.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}
	for hop := 0; ; hop++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, current, nil)
		if err != nil {
			// Unparseable URLs (typos in the dataset) cannot even be
			// requested; treat as Other with the parse error attached.
			res.Category, res.Err = CatOther, err
			return res
		}
		req.Header.Set("User-Agent", userAgent)
		for k, vs := range extra {
			for _, v := range vs {
				req.Header.Set(k, v)
			}
		}

		resp, err := c.roundTrip(req)
		if err != nil {
			res.Category, res.Err = classifyError(err), err
			return res
		}
		loc := resp.Header.Get("Location")
		var next *url.URL
		if isRedirect(resp.StatusCode) && loc != "" {
			if next, err = req.URL.Parse(loc); err != nil {
				resp.Body.Close()
				err = urlError(req, fmt.Errorf("failed to parse Location header %q: %v", loc, err))
				res.Category, res.Err = classifyError(err), err
				return res
			}
		}

		body, readErr := readBody(resp, c.maxBody)
		res.Hops = append(res.Hops, Hop{URL: current, Status: resp.StatusCode, Location: loc})
		if hop == 0 {
			res.InitialStatus = resp.StatusCode
		}
		res.FinalStatus = resp.StatusCode
		res.FinalURL = current
		res.Body = body
		res.RetryAfter = retryAfter(resp.Header.Get("Retry-After"), func() time.Time { return responseTime(resp.Header) })
		if readErr != nil {
			// The transport died mid-body: a truncated read is a failed
			// fetch, not a Cat200 with a short body (which would poison
			// the soft-404 shingle comparison downstream).
			res.Category, res.Err = classifyError(readErr), readErr
			return res
		}

		if next == nil {
			res.Category = classifyStatus(resp.StatusCode)
			return res
		}
		if hop+1 > maxRedirects {
			res.Category = CatOther
			res.Err = fmt.Errorf("fetch: stopped after %d redirects", maxRedirects)
			return res
		}
		res.Redirected = true
		current = next.String()
	}
}

// roundTrip sends one request the way http.Client.Do would with
// redirect following off and no client timeout: userinfo in the URL
// becomes basic auth, transport errors are wrapped in *url.Error, and a
// nil body reads as empty.
func (c *Client) roundTrip(req *http.Request) (*http.Response, error) {
	if u := req.URL.User; u != nil && req.Header.Get("Authorization") == "" {
		password, _ := u.Password()
		req.SetBasicAuth(u.Username(), password)
	}
	resp, err := c.rt.RoundTrip(req)
	switch {
	case err != nil:
		return nil, urlError(req, err)
	case resp == nil:
		return nil, urlError(req, fmt.Errorf("http: RoundTripper implementation (%T) returned a nil *Response with a nil error", c.rt))
	case resp.Body == nil:
		resp.Body = http.NoBody
	}
	return resp, nil
}

// urlError wraps err as http.Client.Do does, with the URL's password
// masked.
func urlError(req *http.Request, err error) error {
	u := req.URL.String()
	if _, set := req.URL.User.Password(); set {
		u = strings.Replace(u, req.URL.User.String()+"@", req.URL.User.Username()+":***@", 1)
	}
	return &url.Error{Op: "Get", URL: u, Err: err}
}

// readBody reads at most limit bytes of the body. A stated length under
// the limit sizes the buffer, one byte over it for the read that meets
// EOF; the read loop is io.ReadAll's, so a body shorter or longer than
// it says reads the same as with no length at all. The buffer becomes
// the string as strings.Builder's does, without a copy: nothing writes
// it once the read is done.
func readBody(resp *http.Response, limit int64) (string, error) {
	defer resp.Body.Close()
	if limit == 0 {
		return "", nil // status-only: ReadAll would buy 512 bytes to read none
	}
	size := int64(512) // io.ReadAll's first buffer
	if n := resp.ContentLength; n >= 0 && n < limit {
		size = n + 1
	}
	b, err := readAll(&io.LimitedReader{R: resp.Body, N: limit}, make([]byte, 0, size))
	return unsafe.String(unsafe.SliceData(b), len(b)), err
}

// readAll is io.ReadAll reading into b's capacity before it grows b.
// It takes the concrete reader, so the caller's stays on its stack.
func readAll(r *io.LimitedReader, b []byte) ([]byte, error) {
	for {
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)] // let append pick the growth
		}
	}
}

// retryAfter reads a Retry-After header in either form RFC 9110
// allows: delay-seconds ("120") or an HTTP-date ("Fri, 31 Dec 1999
// 23:59:59 GMT"). Dates are converted to a delay relative to `now`
// (the response's own Date header when present, else wall clock), so
// an origin advertising an absolute retry time is honored instead of
// silently parsing to 0 and defeating the retry layer's backoff.
// Absent, malformed, negative, or already-elapsed values are 0. now is
// called only for the date form: most responses carry no Retry-After.
func retryAfter(v string, now func() time.Time) time.Duration {
	v = strings.TrimSpace(v)
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	when, err := http.ParseTime(v)
	if err != nil {
		return 0
	}
	d := when.Sub(now())
	if d < 0 {
		return 0
	}
	return d
}

// responseTime anchors HTTP-date Retry-After math at the response's
// own Date header when it parses (the server's clock is the one the
// date was written against), falling back to the local wall clock.
func responseTime(h http.Header) time.Time {
	if t, err := http.ParseTime(h.Get("Date")); err == nil {
		return t
	}
	return time.Now()
}

func isRedirect(status int) bool {
	switch status {
	case http.StatusMovedPermanently, http.StatusFound, http.StatusSeeOther,
		http.StatusTemporaryRedirect, http.StatusPermanentRedirect:
		return true
	}
	return false
}

func classifyStatus(status int) Category {
	switch status {
	case http.StatusOK:
		return Cat200
	case http.StatusNotFound:
		return Cat404
	default:
		return CatOther
	}
}

// classifyError maps a transport error to a Category the way the
// paper's measurement does: DNS errors are DNS failures; deadline and
// net timeouts are Timeouts; everything else is Other.
func classifyError(err error) Category {
	var dnsErr *net.DNSError
	if errors.As(err, &dnsErr) {
		return CatDNSFailure
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return CatTimeout
	}
	var netErr net.Error
	if errors.As(err, &netErr) && netErr.Timeout() {
		return CatTimeout
	}
	// http.Client wraps errors in *url.Error; a timeout may also
	// surface as a string in exotic paths. Catch the common one.
	if strings.Contains(err.Error(), "Client.Timeout exceeded") {
		return CatTimeout
	}
	return CatOther
}
