package simweb_test

import (
	"context"
	"io"
	"net/http"
	"testing"

	"permadead/internal/simclock"
	"permadead/internal/simweb"
	"permadead/internal/worldgen"
)

// readThrough reads body to EOF through a buffer of size bytes.
func readThrough(t *testing.T, body io.Reader, size int) string {
	t.Helper()
	var got []byte
	buf := make([]byte, size)
	for {
		n, err := body.Read(buf)
		got = append(got, buf[:n]...)
		if err == io.EOF {
			return string(got)
		}
		if err != nil || n == 0 {
			t.Fatalf("Read into %d bytes = %d, %v", size, n, err)
		}
	}
}

// TestLazyBodyReadsEveryPage: every page of a Scale(0.05) world, read
// from the transport through buffers of 1, n−1, n, n+1 and 4 096 bytes
// (n its Content-Length), is the body World.Get renders — whether the
// first Read renders into the reader's buffer or into the body's own.
func TestLazyBodyReadsEveryPage(t *testing.T) {
	p := worldgen.DefaultParams().Scale(0.05)
	p.Seed = 1
	w := worldgen.Generate(p).World
	tr := simweb.NewTransport(w, simclock.StudyTime)
	live := 0
	for _, host := range w.Hostnames() {
		w.Site(host).EachPage(func(pg *simweb.Page) {
			url := "http://" + host + pg.Path
			want := w.Get(url, simclock.StudyTime)
			if want.Kind != simweb.KindResponse {
				return
			}
			if want.Status == http.StatusOK {
				live++
			}
			n := len(want.Body)
			for _, size := range []int{1, n - 1, n, n + 1, 4096} {
				if size < 1 {
					continue
				}
				req, err := http.NewRequestWithContext(context.Background(), http.MethodGet, url, nil)
				if err != nil {
					t.Fatal(err)
				}
				resp, err := tr.RoundTrip(req)
				if err != nil {
					t.Fatalf("%s: %v", url, err)
				}
				if resp.ContentLength != int64(n) {
					t.Fatalf("%s: ContentLength %d, World.Get's body %d bytes", url, resp.ContentLength, n)
				}
				if got := readThrough(t, resp.Body, size); got != want.Body {
					t.Fatalf("%s through %d-byte reads:\n%q\nWorld.Get:\n%q", url, size, got, want.Body)
				}
				resp.Body.Close()
			}
		})
	}
	if live < 500 {
		t.Fatalf("only %d pages answer 200: the world is not the one this test reads", live)
	}
}
