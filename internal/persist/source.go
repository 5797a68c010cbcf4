package persist

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"permadead/internal/worldgen"
)

// Source names the universe a binary measures: a file saved by
// 'worldgen -save' (Load) or a universe generated from Scale, Seed and
// the fault knobs. It is the one definition of the universe flags, so
// -flaky means the same in every binary that takes it.
//
//	src := persist.NewSource(0.25)
//	src.Register(flag.CommandLine)
//	flag.Parse()
//	b, err := src.Open()
type Source struct {
	Scale     float64 // relative to the paper's 10,000-link study
	Seed      int64   // generation seed; with Load, the sampling seed only
	Flaky     float64 // fraction of sites given transient-fault windows (0 = off)
	FlakyRate float64 // per-attempt failure probability inside a window
	Load      string  // saved universe to open instead of generating

	// FlakyStreamDays extends fault windows past the study day. No
	// universe flag sets it: permadeadd registers -flaky-stream-days
	// itself, and Open rejects it with -load like the flags here.
	FlakyStreamDays int

	fs *flag.FlagSet // set by Register, checked by Open
}

// NewSource returns the defaults every binary shares — seed 1, no
// faults, and a 0.5 failure rate for windows -flaky plants — at the
// binary's own default scale.
func NewSource(scale float64) *Source {
	return &Source{Scale: scale, Seed: 1, FlakyRate: 0.5}
}

// Register defines the universe flags on fs, each defaulting to its
// field's value at the call, so a binary sets its own defaults first.
// With names, only those flags are defined: a binary that cannot load
// a file, or plant faults, leaves theirs out.
func (s *Source) Register(fs *flag.FlagSet, names ...string) {
	s.fs = fs
	want := func(name string) bool { return len(names) == 0 || slices.Contains(names, name) }
	if want("scale") {
		fs.Float64Var(&s.Scale, "scale", s.Scale, "universe scale relative to the paper's 10,000-link study")
	}
	if want("seed") {
		fs.Int64Var(&s.Seed, "seed", s.Seed, "generation seed, and the study's sampling seed (sampling only with -load)")
	}
	if want("flaky") {
		fs.Float64Var(&s.Flaky, "flaky", s.Flaky, "fraction of generated sites given transient-fault windows (0 = off)")
	}
	if want("flaky-rate") {
		fs.Float64Var(&s.FlakyRate, "flaky-rate", s.FlakyRate, "per-attempt failure probability inside a fault window")
	}
	if want("load") {
		fs.StringVar(&s.Load, "load", s.Load, "open a universe saved by 'worldgen -save' instead of generating one")
	}
}

// generationFlags shape a generated universe, so a saved one ignores
// them; -seed stays legal with -load because it also seeds sampling.
var generationFlags = []string{"scale", "flaky", "flaky-rate", "flaky-stream-days"}

// Params returns the generation parameters the fields describe.
func (s *Source) Params() worldgen.Params {
	p := worldgen.DefaultParams().Scale(s.Scale)
	p.Seed = s.Seed
	p.FlakySiteFrac = s.Flaky
	p.FlakyRate = s.FlakyRate
	p.FlakyStreamDays = s.FlakyStreamDays
	return p
}

// Open returns the frozen bundle: the file at Load, or a universe
// generated from Params, with progress on stderr. A generation flag set
// on the registered FlagSet together with -load is a usage error;
// under flag.ExitOnError Open prints it and exits 2, as flag.Parse does.
func (s *Source) Open() (*Bundle, error) {
	if err := s.checkLoad(); err != nil {
		if s.fs.ErrorHandling() == flag.ExitOnError {
			fmt.Fprintf(s.fs.Output(), "%s: %v\n", filepath.Base(s.fs.Name()), err)
			os.Exit(2)
		}
		return nil, err
	}
	start := time.Now()
	if s.Load != "" {
		b, err := OpenPaged(s.Load)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "loaded universe from %s in %.3fs\n", s.Load, time.Since(start).Seconds())
		return b, nil
	}
	p := s.Params()
	p.Progress = func(stage string, done, total int) {
		if total > 0 {
			fmt.Fprintf(os.Stderr, "\r  %s: %d/%d        ", stage, done, total)
		} else {
			fmt.Fprintf(os.Stderr, "\r  %-40s\n", stage)
		}
	}
	fmt.Fprintf(os.Stderr, "generating universe (scale %.2f, seed %d)...\n", s.Scale, s.Seed)
	u := worldgen.Generate(p)
	fmt.Fprintf(os.Stderr, "generated in %.1fs\n%s", time.Since(start).Seconds(), u.Summary())
	return FromUniverse(u), nil
}

// checkLoad names the first generation flag explicitly set beside -load.
func (s *Source) checkLoad() error {
	if s.fs == nil || s.Load == "" {
		return nil
	}
	var err error
	s.fs.Visit(func(f *flag.Flag) {
		if err == nil && slices.Contains(generationFlags, f.Name) {
			err = fmt.Errorf("-%s shapes a generated universe and cannot be combined with -load", f.Name)
		}
	})
	return err
}
