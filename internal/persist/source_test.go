package persist

import (
	"errors"
	"flag"
	"io"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// parseSource registers a Source, at the binaries' shared defaults, on
// a fresh FlagSet (plus permadeadd's own -flaky-stream-days) and
// parses args into it.
func parseSource(t *testing.T, args ...string) *Source {
	t.Helper()
	src := NewSource(0.25)
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	src.Register(fs)
	fs.IntVar(&src.FlakyStreamDays, "flaky-stream-days", 0, "")
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return src
}

// -flaky on its own must plant fault windows: the failure rate inside
// them defaults to a positive value in every binary.
func TestSourceFlakyAlonePlantsFaults(t *testing.T) {
	src := parseSource(t, "-scale", "0.02", "-flaky", "1")
	b, err := src.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for _, host := range b.World.Hostnames() {
		if len(b.World.Site(host).Faults) > 0 {
			return
		}
	}
	t.Fatalf("-flaky 1 alone (flaky-rate %v) planted no fault window on %d sites",
		src.FlakyRate, b.World.Sites())
}

// A generation flag explicitly set beside -load is refused by name;
// -seed, which also seeds sampling, is not.
func TestSourceRejectsGenerationFlagsWithLoad(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.pduniv")
	for _, tc := range []struct {
		args []string
		flag string // the refused flag; "" = accepted (then the load fails)
	}{
		{[]string{"-load", missing}, ""},
		{[]string{"-load", missing, "-seed", "2"}, ""},
		{[]string{"-load", missing, "-scale", "0.1"}, "-scale"},
		{[]string{"-scale", "0.25", "-load", missing}, "-scale"},
		{[]string{"-load", missing, "-flaky", "0.2"}, "-flaky"},
		{[]string{"-load", missing, "-flaky", "0"}, "-flaky"},
		{[]string{"-load", missing, "-flaky-rate", "0.7"}, "-flaky-rate"},
		{[]string{"-load", missing, "-flaky-stream-days", "3"}, "-flaky-stream-days"},
	} {
		_, err := parseSource(t, tc.args...).Open()
		if tc.flag == "" {
			if !errors.Is(err, fs.ErrNotExist) {
				t.Errorf("%v: err %v, want the missing file's", tc.args, err)
			}
			continue
		}
		if err == nil || !strings.HasPrefix(err.Error(), tc.flag+" ") || !strings.Contains(err.Error(), "-load") {
			t.Errorf("%v: err %v, want one naming %s and -load", tc.args, err, tc.flag)
		}
	}
}
