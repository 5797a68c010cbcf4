package fetch

import (
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
)

// readBodyReference is readBody as it was before a stated length sized
// its buffer: io.ReadAll from 512 bytes up. readBody is held to it.
func readBodyReference(resp *http.Response, limit int64) (string, error) {
	defer resp.Body.Close()
	if limit == 0 {
		return "", nil
	}
	b, err := io.ReadAll(io.LimitReader(resp.Body, limit))
	return string(b), err
}

// readBodyCopying is readBody as it was before its buffer became the
// string: the bytes read, then copied by the conversion.
func readBodyCopying(resp *http.Response, limit int64) (string, error) {
	defer resp.Body.Close()
	if limit == 0 {
		return "", nil
	}
	size := int64(512)
	if n := resp.ContentLength; n >= 0 && n < limit {
		size = n + 1
	}
	b, err := readAll(&io.LimitedReader{R: resp.Body, N: limit}, make([]byte, 0, size))
	return string(b), err
}

var errMidBody = errors.New("connection reset mid-body")

// failingBody yields its bytes in chunks of at most chunk, then fails
// with err instead of io.EOF when err is set.
type failingBody struct {
	rest  string
	chunk int
	err   error
}

func (b *failingBody) Read(p []byte) (int, error) {
	if b.rest == "" {
		if b.err != nil {
			return 0, b.err
		}
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), b.chunk)], b.rest)
	b.rest = b.rest[n:]
	return n, nil
}

func (b *failingBody) Close() error { return nil }

// TestReadBodyMatchesReference: whatever length a response states,
// and wherever the limit falls, readBody returns the reference's
// bytes and error.
func TestReadBodyMatchesReference(t *testing.T) {
	body := strings.Repeat("0123456789abcdef", 200) // 3 200 bytes
	n := int64(len(body))
	for _, c := range []struct {
		name          string
		contentLength int64
		limit         int64
		err           error
	}{
		{"unknown length", -1, 1 << 20, nil},
		{"stated zero", 0, 1 << 20, nil},
		{"exact", n, 1 << 20, nil},
		{"stated shorter than the body", n / 3, 1 << 20, nil},
		{"stated longer than the body", 2 * n, 1 << 20, nil},
		{"stated one under the limit", n, n + 1, nil},
		{"stated at the limit", n, n, nil},
		{"over the limit", n, n / 2, nil},
		{"unknown length over the limit", -1, n / 2, nil},
		{"limit 0", n, 0, nil},
		{"fails mid-body, exact", n, 1 << 20, errMidBody},
		{"fails mid-body, unknown length", -1, 1 << 20, errMidBody},
		{"fails mid-body, stated shorter", n / 3, 1 << 20, errMidBody},
	} {
		for _, chunk := range []int{1 << 20, 1000, 7} {
			resp := func() *http.Response {
				return &http.Response{
					ContentLength: c.contentLength,
					Body:          &failingBody{rest: body, chunk: chunk, err: c.err},
				}
			}
			got, gotErr := readBody(resp(), c.limit)
			want, wantErr := readBodyReference(resp(), c.limit)
			if got != want || gotErr != wantErr {
				t.Errorf("%s, chunk %d: readBody = %d bytes, %v; reference %d bytes, %v",
					c.name, chunk, len(got), gotErr, len(want), wantErr)
			}
		}
	}
}

// TestReadBodySizedAllocs: a stated length under the limit reads a
// 5 000-byte body into one buffer, with as many allocations as a body
// of unstated length that fits the first 512-byte buffer; io.ReadAll
// grows from 512 bytes by doubling.
func TestReadBodySizedAllocs(t *testing.T) {
	read := func(f func(*http.Response, int64) (string, error), body string, stated int64) float64 {
		return testing.AllocsPerRun(50, func() {
			f(&http.Response{ContentLength: stated, Body: io.NopCloser(strings.NewReader(body))}, 256<<10)
		})
	}
	big, small := strings.Repeat("x", 5000), strings.Repeat("x", 100)
	got := read(readBody, big, int64(len(big)))
	if one := read(readBody, small, -1); got != one {
		t.Errorf("readBody made %v allocations for a stated 5 000 bytes, %v for an unstated 100", got, one)
	}
	if ref := read(readBodyReference, big, int64(len(big))); got >= ref {
		t.Errorf("readBody made %v allocations for a stated 5 000 bytes, io.ReadAll %v", got, ref)
	}
}

// TestReadBodyKeepsItsBuffer: a body of stated length costs one
// allocation, the buffer the string then lies in; the copying read
// took a second for the string. (The response and its reader are
// allocated for both.)
func TestReadBodyKeepsItsBuffer(t *testing.T) {
	body := strings.Repeat("x", 5000)
	read := func(f func(*http.Response, int64) (string, error)) float64 {
		return testing.AllocsPerRun(50, func() {
			got, _ := f(&http.Response{ContentLength: int64(len(body)), Body: io.NopCloser(strings.NewReader(body))}, 256<<10)
			if got != body {
				t.Fatalf("read %d bytes, want %d", len(got), len(body))
			}
		})
	}
	if got, copying := read(readBody), read(readBodyCopying); got != copying-1 {
		t.Errorf("readBody: %v allocations, the copying read %v: want one fewer", got, copying)
	}
}
