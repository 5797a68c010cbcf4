// Package report writes the study's results as a Markdown document —
// the generator behind EXPERIMENTS.md: the paper-vs-measured table
// and per-figure ASCII sketches.
package report

import (
	"fmt"
	"io"
	"strings"

	"permadead/internal/core"
)

// Options selects document sections.
type Options struct {
	// Title heads the document.
	Title string
	// Command records how the numbers were produced.
	Command string
	// IncludeFigures embeds the ASCII figure sketches.
	IncludeFigures bool
}

// WriteMarkdown renders the study report as Markdown.
func WriteMarkdown(w io.Writer, r *core.Report, o Options) error {
	bw := &errWriter{w: w}
	title := o.Title
	if title == "" {
		title = "Experiments — paper vs. measured"
	}
	fmt.Fprintf(bw, "# %s\n\n", title)
	if o.Command != "" {
		fmt.Fprintf(bw, "Produced by:\n\n```\n%s\n```\n\n", o.Command)
	}
	fmt.Fprintf(bw, "Sample: %d permanently dead links across %d domains and %d hostnames.\n\n",
		r.N(), r.NumDomains, r.NumHosts)

	bw.WriteString("## Paper vs. measured\n\n")
	writeMDTable(bw,
		[]string{"Experiment", "Paper (10k sample)", "Measured"},
		func(add func(...string)) {
			for _, row := range r.PaperComparison() {
				add(row.Experiment, row.Paper, row.Measured)
			}
		})
	bw.WriteString("\n")

	if o.IncludeFigures {
		bw.WriteString("## Figures\n\n```\n")
		bw.WriteString(r.RenderDataset())
		bw.WriteString("\n")
		bw.WriteString(r.RenderLive())
		bw.WriteString("\n")
		bw.WriteString(r.RenderTemporal())
		bw.WriteString("\n")
		bw.WriteString(r.RenderSpatial())
		bw.WriteString("```\n\n")
	}
	return bw.err
}

// writeMDTable renders a GitHub-style Markdown table.
func writeMDTable(w io.Writer, headers []string, fill func(add func(...string))) {
	var rows [][]string
	fill(func(cells ...string) {
		rows = append(rows, cells)
	})
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		parts := make([]string, len(headers))
		for i := range headers {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintf(w, "| %s |\n", strings.Join(parts, " | "))
	}
	writeRow(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(sep, " | "))
	for _, row := range rows {
		writeRow(row)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// errWriter latches the first write error.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return 0, e.err
	}
	n, err := e.w.Write(p)
	e.err = err
	return n, err
}

func (e *errWriter) WriteString(s string) (int, error) {
	return e.Write([]byte(s))
}
