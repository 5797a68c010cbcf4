package permadead

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"
)

// The smoke test is the binary-wiring half of what used to be six bash
// scripts: it builds every binary, holds each one's flags to DESIGN.md
// §6, execs the real worldgen, inspect, deadlinkstudy, permadeadd and
// permadead-router and checks that flags reach the config, manifests
// are written and read back, and a saved universe boots and answers.
// What the system *does* once booted is asserted in-process by the
// owning packages' tests (CHANGES.md maps every old script assertion to
// its test).

// buildBinaries builds every binary under cmd/ into a directory that
// lives as long as t and returns a name → path lookup.
func buildBinaries(t *testing.T) func(name string) string {
	t.Helper()
	dir := t.TempDir()
	out, err := exec.Command("go", "build", "-o", dir+string(os.PathSeparator), "./cmd/...").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return func(name string) string { return filepath.Join(dir, name) }
}

// run executes a binary to completion and returns its combined output.
func run(bin string, args ...string) (string, error) {
	out, err := exec.Command(bin, args...).CombinedOutput()
	return string(out), err
}

// server is a booted permadeadd or permadead-router.
type server struct {
	base    string // http://host:port
	logPath string
}

func (s *server) log(t *testing.T) string {
	t.Helper()
	b, err := os.ReadFile(s.logPath)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// boot starts a serving binary on an ephemeral port, waits for it to
// write its bound address, and arranges for the test's end to SIGTERM
// it and require a clean (drained, exit 0) shutdown.
func boot(t *testing.T, bin string, args ...string) *server {
	t.Helper()
	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr")
	s := &server{logPath: filepath.Join(dir, "log")}
	logFile, err := os.Create(s.logPath)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile}, args...)...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1) // the one Wait result
	go func() {
		exited <- cmd.Wait()
		logFile.Close()
	}()
	t.Cleanup(func() {
		cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already gone is fine
		select {
		case err := <-exited:
			if err != nil {
				t.Errorf("%s did not shut down cleanly: %v\n%s", bin, err, s.log(t))
			}
		case <-time.After(15 * time.Second):
			cmd.Process.Kill() //nolint:errcheck // best effort
			t.Errorf("%s ignored SIGTERM for 15s\n%s", bin, s.log(t))
		}
	})

	deadline := time.After(30 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(bytes.TrimSpace(b)) > 0 {
			s.base = "http://" + string(bytes.TrimSpace(b))
			return s
		}
		select {
		case err := <-exited:
			exited <- err // for the cleanup
			t.Fatalf("%s died during startup: %v\n%s", bin, err, s.log(t))
		case <-deadline:
			t.Fatalf("%s never wrote its address\n%s", bin, s.log(t))
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// httpDo issues one request (POST when body is non-nil) and returns the
// status and body.
func httpDo(t *testing.T, target string, body any) (int, []byte) {
	t.Helper()
	var resp *http.Response
	var err error
	if body == nil {
		resp, err = http.Get(target)
	} else {
		data, merr := json.Marshal(body)
		if merr != nil {
			t.Fatal(merr)
		}
		resp, err = http.Post(target, "application/json", bytes.NewReader(data))
	}
	if err != nil {
		t.Fatalf("%s: %v", target, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s: %v", target, err)
	}
	return resp.StatusCode, raw
}

// httpJSON requires a 200 and decodes the body into out.
func httpJSON(t *testing.T, target string, body, out any) {
	t.Helper()
	code, raw := httpDo(t, target, body)
	if code != http.StatusOK {
		t.Fatalf("%s = %d: %s", target, code, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s: bad JSON: %v: %s", target, err, raw)
		}
	}
}

// metrics fetches /metrics and requires every endpoint's 5xx counter
// to be zero.
func metrics(t *testing.T, s *server) map[string]json.RawMessage {
	t.Helper()
	var m map[string]json.RawMessage
	httpJSON(t, s.base+"/metrics", nil, &m)
	for key, raw := range m {
		if !strings.HasPrefix(key, "requests_") {
			continue
		}
		var byClass map[string]int64
		if err := json.Unmarshal(raw, &byClass); err != nil {
			t.Fatalf("/metrics %s: %v", key, err)
		}
		if byClass["5xx"] != 0 {
			t.Errorf("/metrics %s counts %d 5xx responses", key, byClass["5xx"])
		}
	}
	return m
}

func sampleURLs(t *testing.T, s *server, n int) []string {
	t.Helper()
	var sr struct {
		URLs []string `json:"urls"`
	}
	httpJSON(t, fmt.Sprintf("%s/v1/sample?n=%d", s.base, n), nil, &sr)
	if len(sr.URLs) == 0 {
		t.Fatal("/v1/sample returned no URLs")
	}
	return sr.URLs
}

func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("execs the real binaries")
	}
	bin := buildBinaries(t)
	universe := filepath.Join(t.TempDir(), "u.pduniv")
	if out, err := run(bin("worldgen"), "-scale", "0.05", "-seed", "1", "-save", universe, "-shards", "4", "-archives", "3"); err != nil {
		t.Fatalf("worldgen: %v\n%s", err, out)
	}

	var fleet struct {
		Members    []string       `json:"members"`
		OwnedLinks map[string]int `json:"owned_links"`
	}
	readJSON(t, universe+".fleet.json", &fleet)
	if len(fleet.Members) != 4 || len(fleet.OwnedLinks) != 4 {
		t.Fatalf("fleet manifest: members %v, owned_links %v", fleet.Members, fleet.OwnedLinks)
	}
	var archives struct {
		Members []struct {
			Name string `json:"name"`
		} `json:"members"`
	}
	readJSON(t, universe+".archives.json", &archives)
	if len(archives.Members) != 3 || archives.Members[0].Name != "wayback" {
		t.Fatalf("archives manifest: %+v", archives)
	}

	// Every binary's whole option surface against its row in DESIGN.md
	// §6, which names each flag with its users: a flag added without a
	// row entry fails here, and so does a row naming a flag the binary
	// lacks or a binary without a row.
	t.Run("flag surface", func(t *testing.T) {
		rows := designFlags(t)
		built, err := os.ReadDir(filepath.Dir(bin("worldgen")))
		if err != nil {
			t.Fatal(err)
		}
		flagLine := regexp.MustCompile(`(?m)^  -([a-z-]+)`)
		for _, e := range built {
			name := e.Name()
			want, ok := rows[name]
			if !ok {
				t.Errorf("cmd/%s has no row in DESIGN.md §6", name)
				continue
			}
			delete(rows, name)
			usage, _ := run(bin(name), "-h") // -h exits 2 by design
			var got []string
			for _, m := range flagLine.FindAllStringSubmatch(usage, -1) {
				got = append(got, m[1])
			}
			sort.Strings(got)
			if g, w := strings.Join(got, " "), strings.Join(want, " "); g != w {
				t.Errorf("%s flags:\n       -h %s\nDESIGN §6 %s", name, g, w)
			}
		}
		for name := range rows {
			t.Errorf("DESIGN.md §6 has a row for %s, which cmd/ does not build", name)
		}
	})

	// A flag that only modifies another is a usage error without it,
	// never silently ignored.
	t.Run("a modifier flag without its base exits 2", func(t *testing.T) {
		for _, c := range []struct {
			bin  string
			args []string // the lone modifier first
		}{
			{"deadlinkstudy", []string{"-compare", "-scale", "0.05"}},
			{"permadeadd", []string{"-shard-members", "s1,s2", "-scale", "0.05", "-addr", "127.0.0.1:0"}},
		} {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			out, err := exec.CommandContext(ctx, bin(c.bin), c.args...).CombinedOutput()
			cancel()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), c.args[0]) {
				t.Errorf("%s %v: %v, want exit 2 naming %s\n%s", c.bin, c.args, err, c.args[0], out)
			}
		}
	})

	t.Run("inspect verifies the file", func(t *testing.T) {
		out, err := run(bin("inspect"), "-load", universe)
		if err != nil || !strings.Contains(out, "verified") || !strings.Contains(out, "sites") {
			t.Fatalf("inspect -load: %v\n%s", err, out)
		}
		// One flipped byte in the middle of the file (the string arena,
		// by far the largest section) must fail the check by name.
		data, err := os.ReadFile(universe)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0xff
		bad := filepath.Join(t.TempDir(), "bad.pduniv")
		if err := os.WriteFile(bad, data, 0o644); err != nil {
			t.Fatal(err)
		}
		out, err = run(bin("inspect"), "-load", bad)
		if err == nil || !strings.Contains(out, "section") || !strings.Contains(out, "checksum") {
			t.Fatalf("inspect -load of a corrupted file: err %v\n%s", err, out)
		}
	})

	// The third "same bytes" identity beside the two saved-universe
	// hashes of TestGeneratedUniverseBytesPinned, under the same editing
	// rule: the study's stdout, over the generated universe and over its
	// paged reopen.
	t.Run("deadlinkstudy stdout pinned", func(t *testing.T) {
		const want = "fd88b155f3694ea3b7575e8995aee3814c576748305f47a34008dc783e6aa665"
		for _, args := range [][]string{{"-scale", "0.05", "-seed", "1"}, {"-load", universe}} {
			out, err := exec.Command(bin("deadlinkstudy"), append(args, "-quiet")...).Output()
			if err != nil {
				t.Fatalf("deadlinkstudy %v: %v", args, err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(out)); got != want {
				t.Errorf("deadlinkstudy %v -quiet: stdout sha256 = %s, pinned %s", args, got, want)
			}
		}
	})

	// -timeout cancels the run mid-pipeline: the live GETs and every
	// stage fan-out must stop and the binary exit 1, not hang.
	t.Run("deadlinkstudy -timeout exits promptly", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		out, err := exec.CommandContext(ctx, bin("deadlinkstudy"), "-scale", "0.05", "-timeout", "50ms").CombinedOutput()
		if ctx.Err() != nil {
			t.Fatalf("deadlinkstudy -timeout 50ms still running after 10s\n%s", out)
		}
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(string(out), "context deadline exceeded") {
			t.Fatalf("deadlinkstudy -timeout 50ms: %v, want exit 1 naming the deadline\n%s", err, out)
		}
	})

	t.Run("paged file serves like the generated universe", func(t *testing.T) {
		paged := boot(t, bin("permadeadd"), "-load", universe)
		generated := boot(t, bin("permadeadd"), "-scale", "0.05", "-seed", "1", "-repair")

		if log := paged.log(t); !strings.Contains(log, "startup load=") {
			t.Errorf("no startup-phase timing line in the boot log:\n%s", log)
		}

		urls := sampleURLs(t, paged, 40)
		q := "?url=" + url.QueryEscape(urls[0])
		var sa struct {
			Articles []string `json:"articles"`
		}
		httpJSON(t, paged.base+"/v1/sample?n=1&articles=1", nil, &sa)
		for _, c := range []struct {
			path string
			body any
		}{
			{"/healthz", nil},
			{"/v1/availability" + q, nil},
			{"/v1/status" + q, nil},
			{"/v1/classify" + q, nil},
			{"/v1/watch", map[string]any{"urls": urls[:3]}},
			{"/v1/watched", nil},
			{"/v1/sim/tick", map[string]int{"days": 1}},
			{"/v1/sim/article?title=" + url.QueryEscape(sa.Articles[0]), nil},
		} {
			if code, raw := httpDo(t, paged.base+c.path, c.body); code != http.StatusOK {
				t.Errorf("%s = %d: %s", c.path, code, raw)
			}
		}
		code, lines := httpDo(t, paged.base+"/v1/classify/batch", map[string]any{"urls": urls[:3]})
		if n := bytes.Count(lines, []byte("\n")); code != http.StatusOK || n != 3 || !bytes.Contains(lines, []byte(`"verdict"`)) {
			t.Errorf("batch of 3 = %d, %d NDJSON lines: %s", code, n, lines)
		}
		ctx, cancel := context.WithCancel(context.Background())
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, paged.base+"/v1/stream/verdicts", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Errorf("/v1/stream/verdicts: %v %v", resp, err)
		}
		cancel()
		if resp != nil {
			resp.Body.Close()
		}

		for _, u := range urls {
			path := "/v1/classify?url=" + url.QueryEscape(u)
			pc, pb := httpDo(t, paged.base+path, nil)
			gc, gb := httpDo(t, generated.base+path, nil)
			if pc != http.StatusOK || gc != http.StatusOK || !bytes.Equal(pb, gb) {
				t.Fatalf("%s differs:\npaged     %d %s\ngenerated %d %s", path, pc, pb, gc, gb)
			}
		}

		pagedMetrics := metrics(t, paged)
		for _, key := range []string{"startup_ms", "monitor", "prefilter", "singleflight", "requests_batch"} {
			if _, ok := pagedMetrics[key]; !ok {
				t.Errorf("paged server's /metrics lacks %q", key)
			}
		}
		if _, ok := metrics(t, generated)["iabot"]; !ok {
			t.Error("-repair did not reach the config: /metrics lacks \"iabot\"")
		}
	})

	t.Run("2-shard fleet boots from the fleet manifest", func(t *testing.T) {
		names := fleet.Members[:2]
		var spec []string
		for _, name := range names {
			shard := boot(t, bin("permadeadd"), "-load", universe, "-no-monitor",
				"-shard-name", name, "-shard-members", strings.Join(names, ","))
			spec = append(spec, name+"="+strings.TrimPrefix(shard.base, "http://"))
			var info struct {
				Name string `json:"name"`
			}
			httpJSON(t, shard.base+"/v1/shard/info", nil, &info)
			if info.Name != name {
				t.Errorf("shard %s reports itself as %q", name, info.Name)
			}
		}
		router := boot(t, bin("permadead-router"), "-members", strings.Join(spec, ","))

		var health struct {
			Status string `json:"status"`
		}
		httpJSON(t, router.base+"/healthz", nil, &health)
		if health.Status != "ok" {
			t.Errorf("fleet /healthz status %q", health.Status)
		}
		var ring struct {
			Members []string `json:"members"`
		}
		httpJSON(t, router.base+"/admin/ring", nil, &ring)
		if strings.Join(ring.Members, ",") != strings.Join(names, ",") {
			t.Errorf("/admin/ring members %v, want %v", ring.Members, names)
		}
		var sample struct {
			URLs    []string       `json:"urls"`
			ByShard map[string]int `json:"by_shard"`
		}
		httpJSON(t, router.base+"/v1/sample?n=20", nil, &sample)
		if len(sample.URLs) == 0 || len(sample.ByShard) != 2 {
			t.Fatalf("scattered sample: %d urls from %v", len(sample.URLs), sample.ByShard)
		}
		httpJSON(t, router.base+"/v1/classify?url="+url.QueryEscape(sample.URLs[0]), nil, nil)
	})

	t.Run("federated server boots from the archives manifest", func(t *testing.T) {
		fed := boot(t, bin("permadeadd"), "-load", universe, "-no-monitor", "-archives", universe+".archives.json")
		if log := fed.log(t); !strings.Contains(log, "federating 3 archive members") {
			t.Errorf("boot log does not announce the federation:\n%s", log)
		}
		var info struct {
			Members []struct {
				Name string `json:"name"`
				Down bool   `json:"down"`
			} `json:"members"`
		}
		httpJSON(t, fed.base+"/v1/federation/info", nil, &info)
		if len(info.Members) != 3 {
			t.Fatalf("/v1/federation/info lists %d members, want 3", len(info.Members))
		}
		httpJSON(t, fed.base+"/v1/federation/member", map[string]any{"member": info.Members[1].Name, "down": true}, nil)
		httpJSON(t, fed.base+"/v1/federation/info", nil, &info)
		if !info.Members[1].Down {
			t.Errorf("member flip did not stick: %+v", info.Members)
		}
		for _, u := range sampleURLs(t, fed, 10) {
			httpJSON(t, fed.base+"/v1/availability?url="+url.QueryEscape(u), nil, nil)
			httpJSON(t, fed.base+"/v1/classify?url="+url.QueryEscape(u), nil, nil)
		}
		metrics(t, fed)
	})
}

// designFlags reads the binary table of DESIGN.md §6: each row's
// binary and the sorted names of the backticked `-flag` tokens in it.
func designFlags(t *testing.T) map[string][]string {
	t.Helper()
	data, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, sec, ok := strings.Cut(string(data), "\n## 6.")
	if !ok {
		t.Fatal("DESIGN.md has no §6")
	}
	sec, _, _ = strings.Cut(sec, "\n## ")
	tick := regexp.MustCompile("`([^`]*)`")
	rows := map[string][]string{}
	for _, line := range strings.Split(sec, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 || !strings.HasPrefix(strings.TrimSpace(cells[1]), "`") {
			continue
		}
		var flags []string
		for _, m := range tick.FindAllStringSubmatch(strings.Join(cells[2:], "|"), -1) {
			if f, ok := strings.CutPrefix(m[1], "-"); ok {
				name, _, _ := strings.Cut(f, " ")
				flags = append(flags, name)
			}
		}
		sort.Strings(flags)
		rows[strings.Trim(strings.TrimSpace(cells[1]), "`")] = slices.Compact(flags)
	}
	return rows
}

func readJSON(t *testing.T, path string, out any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, out); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}
