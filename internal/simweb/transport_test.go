package simweb

import (
	"context"
	"io"
	"net/http"
	"strconv"
	"testing"

	"permadead/internal/simclock"
)

func roundTrip(t *testing.T, tr *Transport, method, url string) *http.Response {
	t.Helper()
	req, err := http.NewRequestWithContext(context.Background(), method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := tr.RoundTrip(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	return resp
}

// TestTransportBodyEqualsWorldGet holds the render-on-read body to
// World.Get for every kind of response the state machine produces: the
// bytes read to EOF, the Content-Length header and resp.ContentLength
// all describe the same entity, for GET and (headers only) for HEAD.
func TestTransportBodyEqualsWorldGet(t *testing.T) {
	w := buildWorld()
	site := w.Site("news.example.simnews")
	site.AddPage("/titled.html", day(2009, 1, 1)).Title = "A Named Page"
	site.AddPage("/explicit.html", day(2009, 1, 1)).Content = "<html>verbatim</html>"
	tr := NewTransport(w, simclock.StudyTime)

	for _, url := range []string{
		"http://news.example.simnews/articles/alpha.html", // generated page
		"http://news.example.simnews/titled.html",
		"http://news.example.simnews/explicit.html",
		"http://news.example.simnews/",                    // homepage
		"http://news.example.simnews/missing.html",        // hard 404
		"http://parked.example.simnews/old/content.html",  // parked boilerplate
		"http://moved.example.simnews/artists/steve.html", // 301
		"http://soft.example.simnews/story/123.html",      // 302 home
		"http://soft200.example.simnews/missing/a.html",   // soft 200
		"http://login.example.simnews/members/x",          // 302 login
		"http://login.example.simnews/login",              // login page
		"http://geo.example.simnews/",                     // 403
		"http://outage.example.simnews/",                  // 503
	} {
		want := w.Get(url, simclock.StudyTime)
		if want.Kind != KindResponse || want.Body == "" {
			t.Fatalf("%s: World.Get = %+v, want a response with a body", url, want)
		}
		for _, method := range []string{http.MethodGet, http.MethodHead} {
			resp := roundTrip(t, tr, method, url)
			got, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatalf("%s %s: read: %v", method, url, err)
			}
			wantBody := want.Body
			if method == http.MethodHead {
				wantBody = ""
			}
			if string(got) != wantBody {
				t.Errorf("%s %s: body = %q, want %q", method, url, got, wantBody)
			}
			if resp.StatusCode != want.Status {
				t.Errorf("%s %s: status = %d, want %d", method, url, resp.StatusCode, want.Status)
			}
			if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(want.Body)) {
				t.Errorf("%s %s: Content-Length = %q, want %d", method, url, cl, len(want.Body))
			}
			if resp.ContentLength != int64(len(want.Body)) {
				t.Errorf("%s %s: ContentLength = %d, want %d", method, url, resp.ContentLength, len(want.Body))
			}
			// Reads past EOF stay at EOF, also after Close.
			resp.Body.Close()
			if n, err := resp.Body.Read(make([]byte, 8)); n != 0 || err != io.EOF {
				t.Errorf("%s %s: read after EOF+Close = %d, %v", method, url, n, err)
			}
		}
	}
}

// TestTransportBodyReadInPieces reads through a buffer smaller than
// the document, so the body's offset bookkeeping is exercised.
func TestTransportBodyReadInPieces(t *testing.T) {
	w := buildWorld()
	url := "http://news.example.simnews/articles/alpha.html"
	resp := roundTrip(t, NewTransport(w, simclock.StudyTime), http.MethodGet, url)
	var got []byte
	buf := make([]byte, 7)
	for {
		n, err := resp.Body.Read(buf)
		got = append(got, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil || n == 0 {
			t.Fatalf("Read = %d, %v", n, err)
		}
	}
	if want := w.Get(url, simclock.StudyTime).Body; string(got) != want {
		t.Errorf("pieced body = %q, want %q", got, want)
	}
}

// TestTransportRendersIntoTheReadersBuffer: a first Read whose buffer
// holds the whole page renders into it, so reading the page costs no
// allocation beyond answering and closing it unread.
func TestTransportRendersIntoTheReadersBuffer(t *testing.T) {
	tr := NewTransport(buildWorld(), simclock.StudyTime)
	url := "http://news.example.simnews/articles/alpha.html"
	req, _ := http.NewRequestWithContext(context.Background(), http.MethodGet, url, nil)
	resp, _ := tr.RoundTrip(req)
	buf := make([]byte, resp.ContentLength+1)
	if n, err := resp.Body.Read(buf); int64(n) != resp.ContentLength || err != nil {
		t.Fatalf("first Read = %d, %v; want the whole %d-byte page", n, err, resp.ContentLength)
	}
	if lb := resp.Body.(*lazyBody); lb.page != nil || lb.rest != "" {
		t.Fatalf("after a whole-page Read: page=%v len(rest)=%d, want nothing kept", lb.page, len(lb.rest))
	}

	unread := testing.AllocsPerRun(200, func() {
		r, _ := tr.RoundTrip(req)
		r.Body.Close()
	})
	read := testing.AllocsPerRun(200, func() {
		r, _ := tr.RoundTrip(req)
		r.Body.Read(buf) //nolint:errcheck
		r.Body.Close()
	})
	if read != unread {
		t.Errorf("allocs: closed unread %.0f, read into a whole-page buffer %.0f; want equal", unread, read)
	}
}

// TestStatusLines: the spelled-out status lines are the ones
// strconv.Itoa and http.StatusText build.
func TestStatusLines(t *testing.T) {
	for code, got := range statusLines {
		if want := strconv.Itoa(code) + " " + http.StatusText(code); got != want {
			t.Errorf("statusLines[%d] = %q, want %q", code, got, want)
		}
	}
}

// TestTransportRendersOnlyOnRead pins the point of the lazy body: a
// live page's document does not exist until the first Read, and a
// response closed unread — a status-only check — never builds it.
func TestTransportRendersOnlyOnRead(t *testing.T) {
	w := buildWorld()
	tr := NewTransport(w, simclock.StudyTime)
	url := "http://news.example.simnews/articles/alpha.html"

	resp := roundTrip(t, tr, http.MethodGet, url)
	lb := resp.Body.(*lazyBody)
	if lb.page == nil || lb.rest != "" {
		t.Fatalf("after RoundTrip: page=%v rest=%q, want an unrendered page", lb.page, lb.rest)
	}
	resp.Body.Close()
	if lb.page != nil || lb.rest != "" {
		t.Fatalf("after Close unread: page=%v rest=%q, want nothing rendered or retained", lb.page, lb.rest)
	}

	resp = roundTrip(t, tr, http.MethodGet, url)
	lb = resp.Body.(*lazyBody)
	if n, err := resp.Body.Read(make([]byte, 1)); n != 1 || err != nil {
		t.Fatalf("first Read = %d, %v", n, err)
	}
	if lb.page != nil || len(lb.rest) != int(resp.ContentLength)-1 {
		t.Fatalf("after first Read: page=%v len(rest)=%d, want the rendered remainder (%d)",
			lb.page, len(lb.rest), resp.ContentLength-1)
	}

	// The same claim without looking inside: answering and closing
	// costs fewer allocations than answering and reading, by at least
	// the document's buffer.
	req, _ := http.NewRequestWithContext(context.Background(), http.MethodGet, url, nil)
	one := make([]byte, 1)
	unread := testing.AllocsPerRun(200, func() {
		r, _ := tr.RoundTrip(req)
		r.Body.Close()
	})
	read := testing.AllocsPerRun(200, func() {
		r, _ := tr.RoundTrip(req)
		r.Body.Read(one) //nolint:errcheck
		r.Body.Close()
	})
	if unread >= read {
		t.Errorf("allocs: closed unread %.0f, read %.0f; an unread body must cost less", unread, read)
	}
}
