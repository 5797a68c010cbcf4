package fetch

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"testing"
)

// probeTransport is a scripted RoundTripper, so transport errors on
// any hop are reproducible without a network.
type probeTransport struct {
	// respond overrides the default 200 response.
	respond func(req *http.Request) (*http.Response, error)
}

func (t *probeTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if t.respond != nil {
		return t.respond(req)
	}
	return okResponse(req), nil
}

func okResponse(req *http.Request) *http.Response {
	return &http.Response{
		StatusCode: 200,
		Body:       io.NopCloser(strings.NewReader("ok")),
		Header:     make(http.Header),
		Request:    req,
	}
}

// --- classifyError exotic paths ---

type timeoutNetErr struct{}

func (timeoutNetErr) Error() string   { return "deadline would be exceeded" }
func (timeoutNetErr) Timeout() bool   { return true }
func (timeoutNetErr) Temporary() bool { return true }

func TestClassifyErrorExotic(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want Category
	}{
		{"wrapped deadline", &url.Error{Op: "Get", URL: "http://x/", Err: context.DeadlineExceeded}, CatTimeout},
		{"wrapped net timeout", &url.Error{Op: "Get", URL: "http://x/", Err: timeoutNetErr{}}, CatTimeout},
		{"doubly wrapped dns", &url.Error{Op: "Get", URL: "http://x/",
			Err: &net.OpError{Op: "dial", Err: &net.DNSError{Err: "no such host", Name: "x"}}}, CatDNSFailure},
		{"client timeout string", errors.New(`Get "http://x/": Client.Timeout exceeded while awaiting headers`), CatTimeout},
		{"plain failure", errors.New("connection reset by peer"), CatOther},
	}
	for _, c := range cases {
		if got := classifyError(c.err); got != c.want {
			t.Errorf("%s: classified %v, want %v", c.name, got, c.want)
		}
	}
}

func TestFetchDNSErrorInsideRedirectHop(t *testing.T) {
	// First hop redirects to a host whose DNS lookup fails: the fetch
	// must classify by the error on the *later* hop and keep the
	// recorded chain.
	tr := &probeTransport{respond: func(req *http.Request) (*http.Response, error) {
		if req.URL.Host == "gone.simtest" {
			return nil, &net.OpError{Op: "dial", Err: &net.DNSError{Err: "no such host", Name: "gone.simtest"}}
		}
		resp := okResponse(req)
		resp.StatusCode = http.StatusFound
		resp.Header.Set("Location", "http://gone.simtest/moved")
		return resp, nil
	}}
	c := New(tr)
	res := c.Fetch(context.Background(), "http://alive.simtest/old")
	if res.Category != CatDNSFailure {
		t.Fatalf("category = %v, err = %v", res.Category, res.Err)
	}
	if res.InitialStatus != http.StatusFound || !res.Redirected || len(res.Hops) != 1 {
		t.Errorf("redirect chain not recorded: %+v", res)
	}
}

func TestFetchTimeoutInsideRedirectHop(t *testing.T) {
	tr := &probeTransport{respond: func(req *http.Request) (*http.Response, error) {
		if req.URL.Host == "slow.simtest" {
			return nil, &url.Error{Op: "Get", URL: req.URL.String(), Err: timeoutNetErr{}}
		}
		resp := okResponse(req)
		resp.StatusCode = http.StatusMovedPermanently
		resp.Header.Set("Location", "http://slow.simtest/next")
		return resp, nil
	}}
	c := New(tr)
	res := c.Fetch(context.Background(), "http://alive.simtest/old")
	if res.Category != CatTimeout {
		t.Fatalf("category = %v, err = %v", res.Category, res.Err)
	}
}
