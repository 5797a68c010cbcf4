package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func declared(defs []metricDef) map[string]string {
	out := make(map[string]string, len(defs))
	for _, d := range defs {
		out[d.Name] = d.Unit
	}
	return out
}

func emitted(res result) map[string]string {
	out := make(map[string]string, len(res.Metrics))
	for name, mv := range res.Metrics {
		out[name] = mv.Unit
	}
	return out
}

// TestBenchmarkFileMatchesHarness keeps BENCHMARK.json and the
// harness's own declarations equal: same workloads, same metrics, same
// units, directions and bounds.
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bf.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\nfile    %+v\nharness %+v", bf.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer) {
		t.Errorf("per_layer differs from metrics.go (%d in file, %d in harness)", len(bf.PerLayer), len(perLayer))
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json names workload %q, which the harness does not have", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the harness %d", len(names), len(workloads))
	}
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), bf.EndToEnd...), bf.PerLayer...) {
		if !nameRE.MatchString(d.Name) || d.Unit == "" || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("malformed metric %+v", d)
		}
		if seen[d.Name] {
			t.Errorf("metric %q declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 || len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", bf.RunSeconds, bf.Paths)
	}
}

// TestEveryWorkload drives each workload end to end on a 200-link
// universe, two rounds, then once more traced, and checks what the
// driver will check: the emitted metric set is the declared one, no op
// failed, the trace file parses and its spans form a forest. A traced
// run that returns at all has passed the three-depth sum check.
func TestEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("drives servers over loopback")
	}
	dir := t.TempDir()
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			opt := options{
				workload: w.name, seed: 7, seconds: 0, scale: 0.02,
				setupRepeats: 1, minRounds: 2,
				workRoot: dir, outDir: filepath.Join(dir, "out"),
			}
			res, err := run(opt)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
			}
			if got, want := emitted(res), declared(endToEnd); !reflect.DeepEqual(got, want) {
				t.Errorf("end-to-end metrics %v, declared %v", got, want)
			}
			for name, mv := range res.Metrics {
				if mv.Value <= 0 {
					t.Errorf("%s = %v: an end-to-end metric is never 0", name, mv.Value)
				}
			}

			opt.trace = true
			res, err = run(opt)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Errorf("traced run: %d of %d ops failed", res.Failed, res.Attempted)
			}
			if got, want := emitted(res), declared(perLayer); !reflect.DeepEqual(got, want) {
				var missing []string
				for name := range want {
					if _, ok := got[name]; !ok {
						missing = append(missing, name)
					}
				}
				sort.Strings(missing)
				t.Errorf("per-layer metrics differ from the declared set; missing %v", missing)
			}
			checkTraceFile(t, filepath.Join(opt.outDir, "trace-"+w.name+".json"))
		})
	}
}

func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(tf.Spans) == 0 {
		t.Fatalf("%s holds no spans", path)
	}
	byID := make(map[int]span, len(tf.Spans))
	for _, s := range tf.Spans {
		byID[s.ID] = s
	}
	depths := 0
	for _, s := range tf.Spans {
		if s.EndNS < s.StartNS || s.Name == "" {
			t.Errorf("malformed span %+v", s)
		}
		if s.Parent == 0 {
			continue
		}
		parent, ok := byID[s.Parent]
		if !ok {
			t.Errorf("span %d names parent %d, which is not in the file", s.ID, s.Parent)
		} else if parent.Req != s.Req {
			t.Errorf("span %d (req %d) has a parent of request %d", s.ID, s.Req, parent.Req)
		}
		depths++
	}
	if depths == 0 {
		t.Errorf("%s: no span has a parent: the three depths are not linked", path)
	}
	for id, d := range selfTimes(tf.Spans) {
		if s := byID[id]; d > time.Duration(s.EndNS-s.StartNS) {
			t.Errorf("span %d: self time %v exceeds its duration", id, d)
		}
	}
}
