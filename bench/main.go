// Command bench is permadead's benchmark: one harness for the paper
// pipeline and the serving stack. It generates its universes from a
// seed, drives the offline study and in-process servers over real
// loopback with closed-loop clients, checks every answer against a
// sequential oracle study, and prints every metric by name with its
// unit; the last line of standard output is the result as one JSON
// object. BENCHMARK.json at the repository root declares the workloads
// and metrics; README.md in this directory is the catalogue.
//
//	go run ./bench --workload serve_hot --seed 1 --seconds 10 --trace 0
//	go run ./bench --workload serve_hot --seed 1 --seconds 10 --trace 1
//	go run ./bench -all -seeds 1,2,3 -out bench/out/a.json
//	go run ./bench -compare bench/out/a.json bench/out/b.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef declares one metric; BENCHMARK.json carries the same list
// (bench_test.go keeps the two equal).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the system sees. Every workload reports
// every one of them; README.md says what each means on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"boot_ms", "ms", "lower", 0.20},
	{"ops_per_s", "1/s", "higher", 0.20},
	{"op_p50_ms", "ms", "lower", 0.20},
	{"aux_p50_ms", "ms", "lower", 0.25},
	{"rss_settled_mb", "MB", "lower", 0.10},
}

// setupRepeats is how many times one run sets up; setup_s is the
// median, so one slow generation does not decide it.
const setupRepeats = 3

// minRounds is the fewest rounds a run reports a median over.
const minRounds = 5

type options struct {
	workload     string
	seed         int64
	seconds      float64
	trace        bool
	scale        float64
	setupRepeats int
	minRounds    int
	workRoot     string // scratch files live in a directory made under this one
	outDir       string // where trace files go
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		opt     options
		trace   = flag.Int("trace", 0, "1 runs the traced, per-layer run instead of the end-to-end one")
		all     = flag.Bool("all", false, "run every workload once per seed, each in its own process")
		seeds   = flag.String("seeds", "1", "comma-separated seeds for -all")
		out     = flag.String("out", "", "with -all, write the result set to this file")
		compare = flag.Bool("compare", false, "compare two result sets: -compare a.json b.json")
	)
	flag.StringVar(&opt.workload, "workload", "", "workload to run (see BENCHMARK.json)")
	flag.Int64Var(&opt.seed, "seed", 1, "seed of every op schedule: which links are asked for, in what order")
	flag.Float64Var(&opt.seconds, "seconds", 10, "measuring time")
	flag.Float64Var(&opt.scale, "scale", defaultScale, "universe scale; results compare only at the default")
	flag.Parse()
	opt.trace = *trace != 0
	opt.setupRepeats, opt.minRounds = setupRepeats, minRounds
	opt.workRoot = ".bench_build"
	opt.outDir = filepath.Join("bench", "out")

	var err error
	switch {
	case *compare:
		err = runCompare(flag.Args())
	case *all:
		err = runAll(opt, *seeds, *out)
	default:
		var res result
		if res, err = run(opt); err == nil {
			err = json.NewEncoder(os.Stdout).Encode(res)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// rssMB is the settled resident set of the whole process — harness
// and oracle included: two collections, every free page the runtime
// will part with returned to the OS, then RSS from /proc less the idle
// heap the runtime still holds back (it keeps 0–3 MB of idle pages from
// run to run on this box, which is a fifth of the figure at this
// scale).
func rssMB() (float64, error) {
	runtime.GC() // twice: the first empties the sync.Pools, the second frees what they held
	runtime.GC()
	debug.FreeOSMemory()
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	fields := strings.Fields(string(raw))
	if len(fields) < 2 {
		return 0, fmt.Errorf("malformed /proc/self/statm %q", raw)
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return 0, err
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return (float64(pages)*float64(os.Getpagesize()) - float64(m.HeapIdle-m.HeapReleased)) / 1e6, nil
}

// run measures one workload and returns its result.
func run(opt options) (result, error) {
	w, ok := findWorkload(opt.workload)
	if !ok {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		return result{}, fmt.Errorf("unknown workload %q (have %s)", opt.workload, strings.Join(names, ", "))
	}
	if err := os.MkdirAll(opt.workRoot, 0o755); err != nil {
		return result{}, err
	}
	workDir, err := os.MkdirTemp(opt.workRoot, "run-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(workDir)

	e := &env{
		sz:      sizesFor(opt.scale),
		seed:    opt.seed,
		clients: min(2, runtime.NumCPU()),
		workDir: workDir,
		fails:   &failLog{},
	}
	if opt.trace {
		return runTraced(opt, w, e)
	}

	var setupS []float64
	for i := 0; i < opt.setupRepeats; i++ {
		dir := filepath.Join(workDir, fmt.Sprintf("setup-%d", i))
		if err := os.Mkdir(dir, 0o755); err != nil {
			return result{}, err
		}
		t0 := time.Now()
		fx, err := setUp(dir, opt.scale, false)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if !w.flaky {
			fx.flaky = nil
		}
		if e.fx != nil {
			os.RemoveAll(filepath.Dir(e.fx.mainPath))
		}
		e.fx = fx
	}

	rounds, err := runRounds(w, e, opt.seconds, opt.minRounds)
	if err != nil {
		return result{}, err
	}

	values := map[string][]float64{"setup_s": setupS}
	res := result{Metrics: make(map[string]metricValue)}
	for _, rr := range rounds {
		values["boot_ms"] = append(values["boot_ms"], ms(rr.boot))
		values["ops_per_s"] = append(values["ops_per_s"], rr.opsPerS)
		values["op_p50_ms"] = append(values["op_p50_ms"], rr.opP50MS)
		values["aux_p50_ms"] = append(values["aux_p50_ms"], rr.auxP50MS)
		values["rss_settled_mb"] = append(values["rss_settled_mb"], rr.rssMB)
		res.Attempted += rr.attempted
		res.Failed += rr.failed
	}
	res.Correct = res.Failed == 0
	fmt.Printf("workload %s  seed %d  scale %g  clients %d (closed loop)  rounds %d\n", w.name, opt.seed, opt.scale, e.clients, len(rounds))
	for _, def := range endToEnd {
		s := summarize(values[def.Name])
		fmt.Printf("%-16s %14.4f %-4s  min %.4f  max %.4f  iqr %.4f  n %d\n", def.Name, s.Median, def.Unit, s.Min, s.Max, s.IQR, s.N)
		res.Metrics[def.Name] = metricValue{s.Median, def.Unit}
	}
	fmt.Printf("%-16s %14.6f       (%d failed of %d attempted)\n", "op_fail_ratio", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	for _, reason := range e.fails.reasons {
		fmt.Fprintln(os.Stderr, "failed op:", reason)
	}
	return res, nil
}

// runRounds repeats the workload's round until the measuring time is
// used up, and at least minRounds times. A round that breaks its
// workload's precondition stops the run with the reason; a round whose
// digest differs from round 0's counts as one failed op.
func runRounds(w workload, e *env, seconds float64, minRounds int) ([]roundResult, error) {
	var rounds []roundResult
	start := time.Now()
	budget := time.Duration(seconds * float64(time.Second))
	for i := 0; ; i++ {
		elapsed := time.Since(start)
		if i >= minRounds && elapsed+elapsed/time.Duration(i) > budget {
			break
		}
		rr, err := w.round(e, i)
		if err != nil {
			return nil, fmt.Errorf("%s round %d: %w", w.name, i, err)
		}
		if rr.invalid != "" {
			return nil, fmt.Errorf("%s round %d invalid: %s", w.name, i, rr.invalid)
		}
		if i > 0 && rr.digest != rounds[0].digest {
			rr.failed++
			e.fails.add(fmt.Errorf("%s round %d: digest %s differs from round 0's %s", w.name, i, rr.digest, rounds[0].digest))
		}
		// Settling after every round gives rss_settled_mb a sample per
		// round and starts each round from the same heap.
		if rr.rssMB, err = rssMB(); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "round %2d  boot %8.3f ms  ops %12.2f /s  op_p50 %10.4f ms  aux_p50 %10.4f ms  rss %7.3f MB  wall %6.3f s\n",
			i, ms(rr.boot), rr.opsPerS, rr.opP50MS, rr.auxP50MS, rr.rssMB, rr.wall.Seconds())
		rounds = append(rounds, rr)
	}
	return rounds, nil
}

// runTraced is the second kind of run: per-layer numbers only. It sets
// up once, runs the workload's round untraced and then traced (the
// ratio of the two timed walls is the tracing overhead), replays GETs at
// three depths, calls each layer's public functions directly, and
// writes the spans to bench/out/trace-<workload>.json.
func runTraced(opt options, w workload, e *env) (result, error) {
	fx, err := setUp(e.workDir, opt.scale, true)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	e.fx = fx
	layer := map[string]float64{"host.nproc": float64(runtime.NumCPU())}
	calibBefore := calibNS()

	// The first round pays for faulting the universe file in; the
	// overhead ratio compares the two after it.
	if _, err := w.round(e, 0); err != nil {
		return result{}, fmt.Errorf("%s warm-up round: %w", w.name, err)
	}
	plain, err := w.round(e, 0)
	if err != nil {
		return result{}, fmt.Errorf("%s untraced round: %w", w.name, err)
	}
	e.tr = newTracer()
	traced, err := w.round(e, 0)
	if err != nil {
		return result{}, fmt.Errorf("%s traced round: %w", w.name, err)
	}
	if traced.invalid != "" {
		return result{}, fmt.Errorf("%s traced round invalid: %s", w.name, traced.invalid)
	}
	layer["bench.trace_overhead_ratio"] = traced.wall.Seconds() / plain.wall.Seconds()
	merge(layer, traced.layer)

	depths, err := threeDepths(e, !w.firstTouch)
	if err != nil {
		return result{}, err
	}
	funcs, err := funcDepth(e)
	if err != nil {
		return result{}, fmt.Errorf("function depth: %w", err)
	}
	fleet, err := fleetDepth(e)
	if err != nil {
		return result{}, err
	}
	merge(layer, depths, funcs, fleet)
	layer["host.calib_ns"] = (calibBefore + calibNS()) / 2

	path, err := e.tr.write(opt.outDir, w.name, opt.seed)
	if err != nil {
		return result{}, err
	}
	fmt.Printf("workload %s  seed %d  scale %g  traced run: %d spans in %s\n", w.name, opt.seed, opt.scale, len(e.tr.spans), path)

	res := result{
		Correct:   traced.failed == 0 && plain.failed == 0,
		Attempted: plain.attempted + traced.attempted,
		Failed:    plain.failed + traced.failed,
		Metrics:   make(map[string]metricValue, len(perLayer)),
	}
	for _, def := range perLayer {
		// A layer that does no work on this workload reads 0.
		v := layer[def.Name]
		fmt.Printf("%-40s %16.4f %s\n", def.Name, v, def.Unit)
		res.Metrics[def.Name] = metricValue{v, def.Unit}
		delete(layer, def.Name)
	}
	if len(layer) > 0 {
		var extra []string
		for name := range layer {
			extra = append(extra, name)
		}
		sort.Strings(extra)
		return result{}, fmt.Errorf("measured but not declared in perLayer: %s", strings.Join(extra, ", "))
	}
	for _, reason := range e.fails.reasons {
		fmt.Fprintln(os.Stderr, "failed op:", reason)
	}
	return res, nil
}

// --- result sets ---

// runRecord is one run in a result set.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Result   result `json:"result"`
}

type resultSet struct {
	Runs []runRecord `json:"runs"`
}

// runAll runs every workload once per seed. Each run is its own
// process, as the driver's are, so rss_settled_mb means the same thing.
func runAll(opt options, seedList, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var set resultSet
	for _, field := range strings.Split(seedList, ",") {
		seed, err := strconv.ParseInt(strings.TrimSpace(field), 10, 64)
		if err != nil {
			return fmt.Errorf("-seeds: %w", err)
		}
		for _, w := range workloads {
			if opt.workload != "" && opt.workload != w.name {
				continue
			}
			cmd := exec.Command(self,
				"--workload", w.name, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64),
				"--scale", strconv.FormatFloat(opt.scale, 'g', -1, 64), "--trace", "0")
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("%s seed %d: last line is not a result: %w", w.name, seed, err)
			}
			fmt.Println(lines[len(lines)-1])
			set.Runs = append(set.Runs, runRecord{w.name, seed, res})
		}
	}
	if out == "" {
		return nil
	}
	raw, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	return os.WriteFile(out, raw, 0o644)
}

// benchmarkFile is BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		return bf, fmt.Errorf("%s: %w", path, err)
	}
	return bf, nil
}
