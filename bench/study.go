package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"permadead/internal/persist"
	"permadead/internal/report"
)

// roundStudyFull is the researcher's path: open the bundle, build a
// cold study, Run, render the report. No service code runs.
func roundStudyFull(e *env, round int) (roundResult, error) {
	rr := roundResult{attempted: 1}
	t0 := time.Now()
	b, err := persist.OpenPaged(e.fx.mainPath)
	if err != nil {
		return rr, err
	}
	defer b.Close()
	s := newStudy(b, e.fx.studyConfig(32))
	if n := len(s.Collect()); n != len(e.fx.oracle.urls) {
		return rr, fmt.Errorf("study_full: collected %d links, oracle has %d", n, len(e.fx.oracle.urls))
	}
	rr.boot = time.Since(t0)

	t0 = time.Now()
	r, err := s.Run(context.Background())
	t1 := time.Now()
	if err != nil {
		return rr, err
	}
	e.tr.add("core.run", 0, round, t0, t1)
	rr.wall = t1.Sub(t0)
	rr.opsPerS = float64(r.N()) / rr.wall.Seconds()
	rr.opP50MS = ms(rr.wall)

	t0 = time.Now()
	var buf bytes.Buffer
	if err := report.WriteMarkdown(&buf, r, report.Options{IncludeFigures: true}); err != nil {
		return rr, err
	}
	rr.auxP50MS = ms(time.Since(t0))

	if rr.digest, err = reportDigest(r); err != nil {
		return rr, err
	}
	if rr.digest != e.fx.oracle.digest {
		rr.failed++
		e.fails.add(fmt.Errorf("study_full: report digest %s differs from the sequential oracle's %s", rr.digest[:12], e.fx.oracle.digest[:12]))
	}
	st := s.Memo().Stats()
	pf := b.Archive.PrefilterStats()
	rr.layer = map[string]float64{
		"archive.memo.hit_ratio":              ratio(st.Hits, st.Hits+st.Misses),
		"archive.memo.evictions":              float64(st.Evictions),
		"archive.prefilter.definite_no_ratio": ratio(pf.DefiniteNo, pf.Checks),
	}
	return rr, nil
}
