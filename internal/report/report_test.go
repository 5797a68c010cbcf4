package report

import (
	"bytes"
	"strings"
	"testing"

	"permadead/internal/core"
	"permadead/internal/fetch"
	"permadead/internal/simweb"
	"permadead/internal/worldgen"
)

func sampleReport(t *testing.T) *core.Report {
	t.Helper()
	u := worldgen.Generate(worldgen.SmallParams())
	cfg := core.DefaultConfig()
	cfg.SampleSize = 0
	cfg.CrawlArticles = 0
	s := &core.Study{
		Config: cfg, Wiki: u.Wiki, Arch: u.Archive,
		Client: fetch.New(simweb.NewTransport(u.World, cfg.StudyTime)),
		Ranks:  u.World,
	}
	r, err := s.Run(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestWriteMarkdown(t *testing.T) {
	r := sampleReport(t)
	var buf bytes.Buffer
	err := WriteMarkdown(&buf, r, Options{
		Title:          "Test report",
		Command:        "go run ./cmd/deadlinkstudy",
		IncludeFigures: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# Test report",
		"go run ./cmd/deadlinkstudy",
		"## Paper vs. measured",
		"| Experiment",
		"§4.1",
		"## Figures",
		"Figure 4",
		"Figure 6",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q", want)
		}
	}
	// Table rows are well formed: every table line has matching pipes.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "|") && !strings.HasSuffix(line, "|") {
			t.Errorf("ragged table row: %q", line)
		}
	}
}

func TestWriteMarkdownDefaults(t *testing.T) {
	r := sampleReport(t)
	var buf bytes.Buffer
	if err := WriteMarkdown(&buf, r, Options{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "# Experiments") {
		t.Error("default title missing")
	}
	if strings.Contains(out, "## Figures") {
		t.Error("figures should be off by default")
	}
}

func TestErrWriterStopsOnError(t *testing.T) {
	r := sampleReport(t)
	w := &failAfter{n: 50}
	if err := WriteMarkdown(w, r, Options{IncludeFigures: true}); err == nil {
		t.Error("expected propagated write error")
	}
}

type failAfter struct{ n int }

func (f *failAfter) Write(p []byte) (int, error) {
	f.n -= len(p)
	if f.n <= 0 {
		return 0, errFail
	}
	return len(p), nil
}

var errFail = &writeErr{}

type writeErr struct{}

func (*writeErr) Error() string { return "synthetic write failure" }
