package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"net/url"
	"sync"
	"time"
)

// conn is one closed-loop client: one goroutine, one keep-alive
// connection. Every body is read to the end before the connection is
// handed back, so the next request reuses it; GotConnInfo.Reused is
// counted to prove that.
type conn struct {
	hc     *http.Client
	buf    bytes.Buffer
	ctx    context.Context // carries the httptrace hook
	gots   int64           // connections obtained since resetReuse
	reused int64           // ...of which were kept-alive ones
}

func newConn() *conn {
	c := &conn{hc: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}}
	c.ctx = httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) {
			c.gots++
			if info.Reused {
				c.reused++
			}
		},
	})
	return c
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

func (c *conn) resetReuse() { c.gots, c.reused = 0, 0 }

// roundTrip sends req and reads the whole body into the connection's
// buffer (valid until the next call).
func (c *conn) roundTrip(req *http.Request) (int, []byte, error) {
	resp, err := c.hc.Do(req.WithContext(c.ctx))
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

func (c *conn) get(target string) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodGet, target, nil)
	if err != nil {
		return 0, nil, err
	}
	return c.roundTrip(req)
}

// getJSON is an untimed helper for control-plane reads (/metrics,
// /healthz, /v1/sim/article).
func (c *conn) getJSON(target string, out any) error {
	status, body, err := c.get(target)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", target, status, body)
	}
	return json.Unmarshal(body, out)
}

func (c *conn) postJSON(target string, in, out any) error {
	raw, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, target, bytes.NewReader(raw))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	status, body, err := c.roundTrip(req)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("POST %s: status %d: %s", target, status, body)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(body, out)
}

// endpoint indexes the three single-link queries.
type endpoint int

const (
	epAvail endpoint = iota
	epStatus
	epClassify
	numEndpoints
)

var endpointNames = [numEndpoints]string{"avail", "status", "classify"}
var endpointPaths = [numEndpoints]string{"/v1/availability", "/v1/status", "/v1/classify"}

// op is one scheduled GET.
type op struct {
	ep  endpoint
	url string
}

func (o op) path() string { return endpointPaths[o.ep] + "?url=" + url.QueryEscape(o.url) }

// answer is the part of the three response bodies the oracle checks.
type answer struct {
	Verdict   string `json:"verdict"`
	Available *bool  `json:"available"`
	Live      struct {
		Category string `json:"category"`
	} `json:"live"`
}

// check compares one response body with the oracle's entry for the op.
func (o *oracle) check(p op, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %.120s", endpointNames[p.ep], p.url, status, body)
	}
	var a answer
	if err := json.Unmarshal(body, &a); err != nil {
		return fmt.Errorf("%s %s: %v", endpointNames[p.ep], p.url, err)
	}
	switch p.ep {
	case epAvail:
		if a.Available == nil || *a.Available != o.available[p.url] {
			return fmt.Errorf("avail %s: got %v, oracle %v", p.url, a.Available, o.available[p.url])
		}
	case epStatus:
		if a.Live.Category != o.liveCat[p.url] {
			return fmt.Errorf("status %s: got %q, oracle %q", p.url, a.Live.Category, o.liveCat[p.url])
		}
	case epClassify:
		if a.Verdict != string(o.verdict[p.url]) {
			return fmt.Errorf("classify %s: got %q, oracle %q", p.url, a.Verdict, o.verdict[p.url])
		}
	}
	return nil
}

// loopResult is what one closed-loop phase measured.
type loopResult struct {
	wall      time.Duration
	lat       [numEndpoints]durs // send → full body read
	attempted int
	failed    int
	gots      int64
	reused    int64
}

func (r *loopResult) okCount() int { return r.attempted - r.failed }

func (r *loopResult) reuseRatio() float64 { return ratio(r.reused, r.gots) }

// failLog keeps the first few failure reasons for stderr; every
// failure still counts.
type failLog struct {
	mu      sync.Mutex
	reasons []string
}

func (f *failLog) add(err error) {
	f.mu.Lock()
	if len(f.reasons) < 8 {
		f.reasons = append(f.reasons, err.Error())
	}
	f.mu.Unlock()
}

// eachClient is the closed loop: client g, on its own goroutine and
// connection, handles items g, g+n, g+2n, … one after another. It
// returns the phase's wall time and how many of the connections its
// requests obtained were kept-alive ones.
func eachClient(conns []*conn, items int, fn func(g int, c *conn, i int)) (wall time.Duration, gots, reused int64) {
	for _, c := range conns {
		c.resetReuse()
	}
	var wg sync.WaitGroup
	start := time.Now()
	for g, c := range conns {
		wg.Add(1)
		go func(g int, c *conn) {
			defer wg.Done()
			for i := g; i < items; i += len(conns) {
				fn(g, c, i)
			}
		}(g, c)
	}
	wg.Wait()
	wall = time.Since(start)
	for _, c := range conns {
		gots += c.gots
		reused += c.reused
	}
	return wall, gots, reused
}

// closedLoop issues ops against base from len(conns) closed-loop
// clients, each sending its next request only when the previous answer
// has been read in full. Every answer is checked against the oracle
// after its latency is recorded. With a tracer, one client.<endpoint>
// span is recorded per request.
func closedLoop(conns []*conn, base string, ops []op, o *oracle, fl *failLog, tr *tracer) loopResult {
	type part struct {
		lat    [numEndpoints]durs
		failed int
	}
	parts := make([]part, len(conns))
	res := loopResult{attempted: len(ops)}
	res.wall, res.gots, res.reused = eachClient(conns, len(ops), func(g int, c *conn, i int) {
		t0 := time.Now()
		status, body, err := c.get(base + ops[i].path())
		t1 := time.Now()
		tr.add("client."+endpointNames[ops[i].ep], 0, i, t0, t1)
		if err == nil {
			err = o.check(ops[i], status, body)
		}
		if err != nil {
			parts[g].failed++
			fl.add(err)
			return
		}
		parts[g].lat[ops[i].ep] = append(parts[g].lat[ops[i].ep], t1.Sub(t0))
	})
	for _, p := range parts {
		res.failed += p.failed
		for ep := range res.lat {
			res.lat[ep] = append(res.lat[ep], p.lat[ep]...)
		}
	}
	return res
}

// readFirstLine reads r to the end, returning when the first newline
// arrived and the complete body.
func readFirstLine(r io.Reader, buf *bytes.Buffer) (first time.Time, err error) {
	buf.Reset()
	chunk := make([]byte, 32<<10)
	for {
		n, rerr := r.Read(chunk)
		if n > 0 {
			if first.IsZero() && bytes.IndexByte(chunk[:n], '\n') >= 0 {
				first = time.Now()
			}
			buf.Write(chunk[:n])
		}
		if rerr == io.EOF {
			return first, nil
		}
		if rerr != nil {
			return first, rerr
		}
	}
}
