package core

import (
	"context"

	"permadead/internal/fetch"
	"permadead/internal/redircheck"
	"permadead/internal/softerror"
)

// Verdict is the study's bottom-line judgment of one "permanently
// dead" link. It collapses the paper's stage-by-stage findings into
// the answer a caller of the serving layer actually wants: was the
// marking correct, and if the link is dead, what does the archive hold?
type Verdict string

const (
	// VerdictAlive: the link answers 200 on the live web today and is
	// not a soft-404 — the "permanently dead" marking is wrong (§3).
	VerdictAlive Verdict = "alive"
	// VerdictUsableCopyMissed: the link is dead, but a usable pre-mark
	// archived copy exists — either an initial-200 capture IABot's
	// timed-out availability lookup missed (§4.1) or a redirect
	// capture that validates as non-erroneous (§4.2).
	VerdictUsableCopyMissed Verdict = "usable-copy-missed"
	// VerdictTypo: the link was never archived, and exactly one
	// archived URL under the same domain sits at edit distance 1 —
	// the dead URL is likely a typo of a live, archived one (§5.2).
	VerdictTypo Verdict = "typo"
	// VerdictCoverageGap: the link was never archived at all — a
	// genuine gap in archive coverage (§5.1–§5.2).
	VerdictCoverageGap Verdict = "coverage-gap"
	// VerdictDead: the link is dead and the archive holds copies, but
	// none of them is usable — the marking is correct and no rescue
	// applies.
	VerdictDead Verdict = "dead"
)

// verdictFrom folds the per-stage facts into one Verdict. The
// precedence mirrors the paper's narrative: a live link trumps
// everything (§3); a usable archived copy is the recoverable
// misclassification (§4); among the never-archived, typo evidence is
// more specific than a bare coverage gap (§5.2). Batch reports and
// ClassifyLink both route through here, so the two paths cannot
// disagree on precedence.
func verdictFrom(functional, usableCopy, neverArchived, typo bool) Verdict {
	switch {
	case functional:
		return VerdictAlive
	case usableCopy:
		return VerdictUsableCopyMissed
	case typo:
		return VerdictTypo
	case neverArchived:
		return VerdictCoverageGap
	default:
		return VerdictDead
	}
}

// assignVerdicts derives Report.Verdicts from the batch stages'
// outcomes, using the same verdictFrom fold ClassifyLink uses.
func (s *Study) assignVerdicts(r *Report) {
	inSet := func(idxs []int) map[int]struct{} {
		m := make(map[int]struct{}, len(idxs))
		for _, i := range idxs {
			m[i] = struct{}{}
		}
		return m
	}
	pre200 := inSet(r.Pre200)
	valid := inSet(r.ValidRedirCopies)
	noCopy := inSet(r.NoCopies)
	typo := inSet(r.TypoLinks)

	r.Verdicts = make([]Verdict, len(r.Records))
	for i := range r.Records {
		functional := false
		if i < len(r.LiveResults) && r.LiveResults[i].Category == fetch.Cat200 {
			functional = !r.SoftVerdicts[i].Broken
		}
		_, hasPre := pre200[i]
		_, hasValid := valid[i]
		_, never := noCopy[i]
		_, isTypo := typo[i]
		r.Verdicts[i] = verdictFrom(functional, hasPre || hasValid, never, isTypo)
	}
}

// LiveStatus is the §3 live-web half of a Classification.
type LiveStatus struct {
	// Category is the Figure 4 bucket of the fetch outcome.
	Category string `json:"category"`
	// InitialStatus and FinalStatus bracket the redirect chain (0 when
	// no response was received).
	InitialStatus int `json:"initial_status"`
	FinalStatus   int `json:"final_status"`
	// FinalURL is where the chain ended (empty without a response).
	FinalURL string `json:"final_url,omitempty"`
	// Redirected reports whether at least one redirect was followed.
	Redirected bool `json:"redirected"`
	// Functional is the §3 bottom line: final status 200 and not a
	// soft-404.
	Functional bool `json:"functional"`
	// SoftReason explains the soft-404 probe's judgment for 200s.
	SoftReason string `json:"soft_reason,omitempty"`
	// Attempts is the number of HTTP fetches a retry policy spent on
	// this verdict (absent under the default single-GET policy).
	Attempts int `json:"attempts,omitempty"`
}

// ArchiveStatus is the §4–§5.1 archive-side half of a Classification.
type ArchiveStatus struct {
	// Pre200Copy: an initial-200 capture existed before the mark
	// (§4.1 — IABot's lookup missed it).
	Pre200Copy bool `json:"pre200_copy"`
	// RedirectCopy: no pre-mark 200 copy, but a pre-mark 3xx capture
	// exists (§4.2).
	RedirectCopy bool `json:"redirect_copy"`
	// ValidatedRedirect: the 3xx copy cross-validates as non-erroneous
	// against its directory siblings (§4.2).
	ValidatedRedirect bool `json:"validated_redirect"`
	// NeverArchived: the archive holds no capture of the URL at all.
	NeverArchived bool `json:"never_archived"`
	// FirstCaptureGapDays is the posting→first-capture gap (§5.1),
	// present only when a post-posting capture exists.
	FirstCaptureGapDays *int `json:"first_capture_gap_days,omitempty"`
}

// SpatialStatus is the §5.2 neighborhood half, measured only for
// never-archived links.
type SpatialStatus struct {
	// DirectoryCoverage and HostnameCoverage count archived 200-status
	// URLs sharing the link's directory and hostname (Figure 6).
	DirectoryCoverage int `json:"directory_coverage"`
	HostnameCoverage  int `json:"hostname_coverage"`
	// Typo: exactly one archived URL under the domain at edit
	// distance 1.
	Typo bool `json:"typo"`
	// TypoScanTruncated: the domain enumeration hit its cap, so a typo
	// could have been missed.
	TypoScanTruncated bool `json:"typo_scan_truncated,omitempty"`
}

// Transient reports whether this live measurement went through a
// transient failure — a timeout, a 429, or a 5xx — mirroring the
// fetch.Transient retry rule. A verdict carrying a transient live half
// reflects the moment, not the link: the serving layer must not
// memoize it. DNS failures are deliberately excluded: the paper's DNS
// deaths are overwhelmingly permanent (domain gone), and treating them
// as transient would make the most common dead class uncacheable —
// the rare DNS flap is the monitor's re-check problem, not the cache's.
func (ls LiveStatus) Transient() bool {
	if ls.Category == fetch.CatTimeout.String() {
		return true
	}
	return ls.FinalStatus == 429 || ls.FinalStatus >= 500
}

// CheckLive runs the §3 live-web measurement for one URL with the
// paper's single GET through Client: Figure 4 classification plus the
// soft-404 probe when the final status is 200. It is the live half of
// ClassifyLink, exported separately so callers (the serving layer's
// /v1/status endpoint) can ask "is this link alive?" without an
// archive-side record.
func (s *Study) CheckLive(ctx context.Context, url string) (LiveStatus, error) {
	return s.CheckLiveWith(ctx, s.Client, url)
}

// CheckLiveWith is CheckLive under an explicit fetch policy — the
// serving layer builds per-request Retriers from query knobs. The
// soft-404 probe always runs through the bare Client: probe fetches
// are a similarity baseline, not a liveness verdict.
func (s *Study) CheckLiveWith(ctx context.Context, f fetch.Fetcher, url string) (LiveStatus, error) {
	if err := ctx.Err(); err != nil {
		return LiveStatus{}, err
	}
	res := f.Fetch(ctx, url)
	if err := ctx.Err(); err != nil {
		return LiveStatus{}, err
	}
	ls := LiveStatus{
		Category:      res.Category.String(),
		InitialStatus: res.InitialStatus,
		FinalStatus:   res.FinalStatus,
		FinalURL:      res.FinalURL,
		Redirected:    res.Redirected,
		Attempts:      res.Attempts,
	}
	if res.Category == fetch.Cat200 {
		v := softerror.NewDetector(s.Client).Check(ctx, res.URL, res)
		ls.SoftReason = v.Reason.String()
		ls.Functional = !v.Broken
	}
	return ls, nil
}

// Classification is the full per-link study judgment — everything the
// batch pipeline would conclude about one sampled link, computed
// on demand.
type Classification struct {
	URL     string  `json:"url"`
	Article string  `json:"article,omitempty"`
	Verdict Verdict `json:"verdict"`

	Live    LiveStatus     `json:"live"`
	Archive ArchiveStatus  `json:"archive"`
	Spatial *SpatialStatus `json:"spatial,omitempty"`
}

// ClassifyLink runs the complete study pipeline for one link: the §3
// live fetch and soft-404 probe, the §4 pre-mark archive
// classification with §4.2 redirect validation, the §5.1 temporal
// partition, and — for never-archived links — the §5.2 spatial
// probes. It reuses the study's memo, so repeated classifications of
// links sharing a domain build its typo candidates once, and it is
// safe for concurrent use on a frozen archive (the serving layer fans
// it out across request handlers).
//
// The returned verdict is identical to what a batch Run would assign
// the same record: both paths share the per-stage helpers and the
// verdictFrom fold.
func (s *Study) ClassifyLink(ctx context.Context, rec LinkRecord) (Classification, error) {
	if err := ctx.Err(); err != nil {
		return Classification{}, err
	}

	c := Classification{URL: rec.URL, Article: rec.Article}

	// §3: live-web status + soft-404 probe for 200s.
	live, err := s.CheckLive(ctx, rec.URL)
	if err != nil {
		return Classification{}, err
	}
	c.Live = live

	// §4: pre-mark archive history.
	ao := s.archiveOutcomeFor(&rec, redircheck.NewChecker(s.Arch))
	c.Archive = ArchiveStatus{
		Pre200Copy:        ao.pre200,
		RedirectCopy:      ao.withRedir,
		ValidatedRedirect: ao.validRedir,
	}

	// §5.1: temporal partition (the batch path only measures it for
	// links without a pre-mark 200 copy; the gap is reported there for
	// parity, but NeverArchived is what the verdict needs).
	if !ao.pre200 {
		to := s.temporalOutcomeFor(&rec)
		c.Archive.NeverArchived = to.noCopy
		if to.hasGap {
			gap := int(to.gap)
			c.Archive.FirstCaptureGapDays = &gap
		}
	}

	// §5.2: spatial probes, never-archived links only.
	typo := false
	if c.Archive.NeverArchived {
		so := s.spatialOutcomeFor(&rec)
		c.Spatial = &SpatialStatus{
			DirectoryCoverage: so.dir,
			HostnameCoverage:  so.host,
			Typo:              so.typo,
			TypoScanTruncated: so.truncated,
		}
		typo = so.typo
	}

	c.Verdict = verdictFrom(
		c.Live.Functional,
		ao.pre200 || ao.validRedir,
		c.Archive.NeverArchived,
		typo,
	)
	return c, nil
}

// ClassifyAll is the bulk form of ClassifyLink: it classifies recs on
// up to conc workers and delivers each result — in input order, as
// soon as it and its predecessors complete — to emit, so a streaming
// caller (the serving layer's /v1/classify/batch endpoint) can flush
// verdict i while verdict i+k is still computing. Per-link failures
// are delivered through emit's err argument rather than aborting the
// batch; returning a non-nil error from emit stops the fan-out.
//
// Verdicts are identical to per-link ClassifyLink calls (both share
// the stage helpers and the verdictFrom fold), and the fan-out shares
// the study memo, so links under one domain share its typo candidates
// exactly as the batch Run stages do.
func (s *Study) ClassifyAll(ctx context.Context, recs []LinkRecord, conc int, emit func(i int, c Classification, err error) error) error {
	if conc <= 0 {
		conc = s.Config.Concurrency
	}
	type outcome struct {
		c   Classification
		err error
	}
	return StreamOrdered(ctx, len(recs), conc, func(i int) outcome {
		c, err := s.ClassifyLink(ctx, recs[i])
		return outcome{c: c, err: err}
	}, func(i int, o outcome) error {
		return emit(i, o.c, o.err)
	})
}
