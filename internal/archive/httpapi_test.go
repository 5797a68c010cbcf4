package archive

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func apiFixture() *httptest.Server {
	a := New()
	a.Add(snap("http://api.simtest/dir/a.html", 1000, 200))
	a.Add(snap("http://api.simtest/dir/a.html", 2000, 404))
	a.Add(snap("http://api.simtest/dir/b.html", 1500, 200))
	a.Add(snap("http://api.simtest/other/c.html", 1600, 200))
	a.Add(Snapshot{
		URL: "http://api.simtest/dir/moved.html", Day: d(1200),
		InitialStatus: 301, FinalStatus: 200,
		RedirectTo: "http://api.simtest/new/moved.html",
	})
	a.Freeze()
	return httptest.NewServer(a.Handler())
}

func getJSON(t *testing.T, url string, into interface{}) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, into); err != nil {
			t.Fatalf("bad JSON %q: %v", body, err)
		}
	}
	return resp.StatusCode
}

func TestAvailabilityEndpoint(t *testing.T) {
	srv := apiFixture()
	defer srv.Close()

	var resp struct {
		URL               string `json:"url"`
		ArchivedSnapshots struct {
			Closest *struct {
				Status    string `json:"status"`
				Available bool   `json:"available"`
				URL       string `json:"url"`
				Timestamp string `json:"timestamp"`
			} `json:"closest"`
		} `json:"archived_snapshots"`
	}
	code := getJSON(t, srv.URL+"/wayback/available?url=http://api.simtest/dir/a.html&timestamp=20060901", &resp)
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	c := resp.ArchivedSnapshots.Closest
	if c == nil || !c.Available || c.Status != "200" {
		t.Fatalf("closest = %+v", c)
	}
	if !strings.Contains(c.URL, "web.archive.org/web/") {
		t.Errorf("replay url = %q", c.URL)
	}

	// Unknown URL: empty archived_snapshots, like the real API.
	resp.ArchivedSnapshots.Closest = nil
	getJSON(t, srv.URL+"/wayback/available?url=http://nowhere.simtest/x", &resp)
	if resp.ArchivedSnapshots.Closest != nil {
		t.Errorf("unknown URL closest = %+v", resp.ArchivedSnapshots.Closest)
	}

	// Missing url parameter.
	if code := getJSON(t, srv.URL+"/wayback/available", &resp); code != 400 {
		t.Errorf("missing url: status %d", code)
	}
	// Bad timestamp.
	if code := getJSON(t, srv.URL+"/wayback/available?url=http://x/&timestamp=zz", &resp); code != 400 {
		t.Errorf("bad timestamp: status %d", code)
	}
}

func TestCDXEndpoint(t *testing.T) {
	srv := apiFixture()
	defer srv.Close()

	var rows [][]string
	code := getJSON(t, srv.URL+"/cdx/search/cdx?url=api.simtest&matchType=host&output=json", &rows)
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(rows) != 6 { // header + 5 captures
		t.Fatalf("rows = %d: %v", len(rows), rows)
	}
	if rows[0][0] != "urlkey" || rows[0][3] != "statuscode" {
		t.Errorf("header = %v", rows[0])
	}

	// Prefix match restricted to /dir/.
	rows = nil
	getJSON(t, srv.URL+"/cdx/search/cdx?url=api.simtest/dir/&matchType=prefix&output=json", &rows)
	if len(rows) != 5 { // header + 4 (/dir/ captures)
		t.Errorf("prefix rows = %d: %v", len(rows), rows)
	}

	// Status filter.
	rows = nil
	getJSON(t, srv.URL+"/cdx/search/cdx?url=api.simtest&matchType=host&output=json&filter=statuscode:200", &rows)
	if len(rows) != 4 { // header + 3
		t.Errorf("filtered rows = %d: %v", len(rows), rows)
	}

	// Exact-URL match (default matchType).
	rows = nil
	getJSON(t, srv.URL+"/cdx/search/cdx?url=http://api.simtest/dir/a.html&output=json", &rows)
	if len(rows) != 3 { // header + 2 captures of a.html
		t.Errorf("exact rows = %d: %v", len(rows), rows)
	}

	// Limit.
	rows = nil
	getJSON(t, srv.URL+"/cdx/search/cdx?url=api.simtest&matchType=host&output=json&limit=2", &rows)
	if len(rows) != 3 { // header + 2
		t.Errorf("limited rows = %d", len(rows))
	}

	// Error paths.
	var junk interface{}
	if code := getJSON(t, srv.URL+"/cdx/search/cdx?output=json", &junk); code != 400 {
		t.Errorf("missing url: %d", code)
	}
	if code := getJSON(t, srv.URL+"/cdx/search/cdx?url=x", &junk); code != 400 {
		t.Errorf("missing output=json: %d", code)
	}
	if code := getJSON(t, srv.URL+"/cdx/search/cdx?url=x&output=json&filter=mime:html", &junk); code != 400 {
		t.Errorf("unsupported filter: %d", code)
	}
	if code := getJSON(t, srv.URL+"/cdx/search/cdx?url=x&output=json&limit=-3", &junk); code != 400 {
		t.Errorf("bad limit: %d", code)
	}
}

func TestHTTPClientAvailable(t *testing.T) {
	srv := apiFixture()
	defer srv.Close()
	c := NewHTTPClient(srv.URL)

	entry, ok, err := c.Available("http://api.simtest/dir/a.html", d(900))
	if err != nil || !ok {
		t.Fatalf("available: %v %v", ok, err)
	}
	if entry.Day != d(1000) || entry.InitialStatus != 200 {
		t.Errorf("entry = %+v", entry)
	}
	// Absent URL.
	_, ok, err = c.Available("http://nowhere.simtest/x", d(1000))
	if err != nil || ok {
		t.Errorf("absent URL: %v %v", ok, err)
	}
	// The availability endpoint mirrors the real one: the closest
	// returned copy may be a redirect; callers filter.
	entry, ok, err = c.Available("http://api.simtest/dir/moved.html", d(1200))
	if err != nil || !ok || entry.InitialStatus != 301 {
		t.Errorf("redirect copy: %+v %v %v", entry, ok, err)
	}
}

func TestHTTPClientCDX(t *testing.T) {
	srv := apiFixture()
	defer srv.Close()
	c := NewHTTPClient(srv.URL)

	rows, err := c.CDX("api.simtest", MatchHost, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Errorf("host rows = %d", len(rows))
	}
	rows, err = c.CDX("api.simtest/dir/", MatchPrefix, 200, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Errorf("prefix 200 rows = %d: %v", len(rows), rows)
	}
	rows, err = c.CDX("http://api.simtest/dir/a.html", MatchExact, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Errorf("limited exact rows = %d", len(rows))
	}
	// Agreement with the in-process API.
	a := New()
	a.Add(snap("http://agree.simtest/x/a.html", 500, 200))
	a.Freeze()
	srv2 := httptest.NewServer(a.Handler())
	defer srv2.Close()
	c2 := NewHTTPClient(srv2.URL)
	remote, err := c2.CDX("agree.simtest", MatchHost, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	local := a.CDXList(CDXQuery{Host: "agree.simtest"})
	if len(remote) != len(local) || remote[0].Day != local[0].Day {
		t.Errorf("remote %v vs local %v", remote, local)
	}
}

func TestHTTPClientServerDown(t *testing.T) {
	c := NewHTTPClient("http://127.0.0.1:1")
	if _, _, err := c.Available("http://x/", d(1)); err == nil {
		t.Error("dead server should error")
	}
	if _, err := c.CDX("x", MatchHost, 0, 0); err == nil {
		t.Error("dead server should error")
	}
}
