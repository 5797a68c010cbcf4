package core

import (
	"context"
	"strings"

	"permadead/internal/archive"
	"permadead/internal/fetch"
	"permadead/internal/redircheck"
	"permadead/internal/softerror"
	"permadead/internal/stats"
	"permadead/internal/urlutil"
)

// The §4–§5 stages below all follow the same parallel shape: workers
// classify links independently (the archive is read-only during a run;
// see the Archive concurrency contract), write per-link outcomes into
// an index-addressed slice, and a sequential merge folds the slots
// into the Report in index order. The merge order — not the worker
// schedule — determines the output, so a Concurrency-32 run produces a
// byte-identical Report to a Concurrency-1 run with the same seed.

// DatasetStats fills the §2.4 / Figure 3 dataset characterization
// (domains, hostnames, per-domain URL counts, site ranks, posting
// dates) for an already-collected sample.
func (s *Study) DatasetStats(r *Report) {
	domains := make(map[string]int)
	hosts := make(map[string]struct{})
	var ranks []float64
	var years []float64
	for i := range r.Records {
		rec := &r.Records[i]
		domains[rec.Domain]++
		hosts[rec.Host] = struct{}{}
		if s.Ranks != nil {
			if rank, ok := s.Ranks.Rank(rec.Host); ok {
				ranks = append(ranks, float64(rank))
			}
		}
		// Fractional year for a smooth Figure 3(c) CDF.
		t := rec.Added.Time()
		years = append(years, float64(t.Year())+float64(t.YearDay())/365.0)
	}
	r.NumDomains = len(domains)
	r.NumHosts = len(hosts)

	perDomain := make([]int, 0, len(domains))
	for _, n := range domains {
		perDomain = append(perDomain, n)
	}
	r.URLsPerDomain = stats.NewCDFInts(perDomain)
	r.SiteRanks = stats.NewCDF(ranks)
	r.PostYears = stats.NewCDF(years)
}

// LiveCheck performs the §3 live-web measurement: one GET per sampled
// URL, Figure 4 classification, and the soft-404 probe for the 200s.
func (s *Study) LiveCheck(ctx context.Context, r *Report) error {
	results := make([]fetch.Result, len(r.Records))
	ParallelFor(len(r.Records), s.Config.Concurrency, func(i int) {
		if ctx.Err() == nil {
			results[i] = s.Client.Fetch(ctx, r.Records[i].URL)
		}
	})
	if err := ctx.Err(); err != nil {
		return err
	}
	r.LiveResults = results

	r.LiveBreakdown = stats.NewBreakdown(
		fetch.CatDNSFailure.String(), fetch.CatTimeout.String(),
		fetch.Cat404.String(), fetch.Cat200.String(), fetch.CatOther.String())

	detector := softerror.NewDetector(s.Client)
	r.SoftVerdicts = make(map[int]softerror.Verdict)
	for i, res := range results {
		r.LiveBreakdown.Add(res.Category.String())
		if res.Category != fetch.Cat200 {
			continue
		}
		r.Num200++
		v := detector.Check(ctx, res.URL, res)
		r.SoftVerdicts[i] = v
		if v.Broken {
			continue
		}
		r.NumFunctional++
		if res.Redirected {
			r.FunctionalViaRedirect++
		}
	}
	return nil
}

// archiveOutcome is one link's §4 classification, produced by a worker
// and merged into the Report in index order.
type archiveOutcome struct {
	pre200     bool
	withRedir  bool
	validRedir bool
	postMark   bool
	postErr    bool
}

// ArchiveAnalysis performs §4: for every link, classify the archived
// copies that existed before IABot marked it dead, and validate 3xx
// copies via sibling cross-examination. It also computes §3's post-
// mark first-copy erroneousness. Links are classified by
// Config.Concurrency workers sharing one redirect checker, which reads
// the sibling listings straight from the frozen CDX index.
func (s *Study) ArchiveAnalysis(r *Report) {
	checker := redircheck.NewChecker(s.Arch)
	outs := make([]archiveOutcome, len(r.Records))
	ParallelFor(len(r.Records), s.Config.Concurrency, func(i int) {
		outs[i] = s.archiveOutcomeFor(&r.Records[i], checker)
	})

	for i := range outs {
		o := &outs[i]
		if o.pre200 {
			r.Pre200 = append(r.Pre200, i)
		}
		if o.withRedir {
			r.WithRedirCopies = append(r.WithRedirCopies, i)
		}
		if o.validRedir {
			r.ValidRedirCopies = append(r.ValidRedirCopies, i)
		}
		if o.postMark {
			r.PostMarkTotal++
			if o.postErr {
				r.PostMarkFirstErroneous++
			}
		}
	}
}

// archiveOutcomeFor classifies one link's pre-mark archive history —
// the §4 unit of work, shared verbatim by the batch fan-out above and
// the per-link ClassifyLink entry point.
func (s *Study) archiveOutcomeFor(rec *LinkRecord, checker *redircheck.Checker) archiveOutcome {
	var o archiveOutcome
	pre := s.archSnapshotsBetween(rec.URL, 0, rec.Marked)

	has200 := false
	var firstRedirect *archive.Snapshot
	for j := range pre {
		if pre[j].InitialStatus == 200 {
			has200 = true
			break
		}
		if pre[j].IsRedirect() && firstRedirect == nil {
			firstRedirect = &pre[j]
		}
	}
	switch {
	case has200:
		// §4.1: a usable copy existed; IABot's timed-out lookup
		// missed it.
		o.pre200 = true
	case firstRedirect != nil:
		o.withRedir = true
		if _, v, ok := checker.FindValidatedCopy(rec.URL, rec.Marked); ok && v.NonErroneous {
			o.validRedir = true
		}
	}

	// §3: the first capture after the link was marked dead.
	if post, ok := s.archFirstAfter(rec.URL, rec.Marked); ok {
		o.postMark = true
		o.postErr = SnapshotErroneous(post)
	}
	return o
}

// temporalOutcome is one link's §5.1 partition, merged in index order.
type temporalOutcome struct {
	analyzed   bool // link had no pre-mark 200 copy
	noCopy     bool
	prePost    bool
	gap        float64
	hasGap     bool
	sameDay    bool
	sameDayErr bool
}

// TemporalAnalysis performs §5.1 on the links with no pre-mark 200
// copy: partition by having any captures at all, then measure the
// posting→first-capture gap (Figure 5).
func (s *Study) TemporalAnalysis(r *Report) {
	pre200 := make(map[int]struct{}, len(r.Pre200))
	for _, i := range r.Pre200 {
		pre200[i] = struct{}{}
	}

	outs := make([]temporalOutcome, len(r.Records))
	ParallelFor(len(r.Records), s.Config.Concurrency, func(i int) {
		if _, ok := pre200[i]; ok {
			return
		}
		outs[i] = s.temporalOutcomeFor(&r.Records[i])
	})

	var gaps []float64
	for i := range outs {
		o := &outs[i]
		if !o.analyzed {
			continue
		}
		r.NoPre200++
		if o.noCopy {
			r.NoCopies = append(r.NoCopies, i)
			continue
		}
		r.WithAnyCopies++
		if o.prePost {
			r.PrePostCopies++
			continue
		}
		if o.hasGap {
			gaps = append(gaps, o.gap)
		}
		if o.sameDay {
			r.SameDayCaptures++
			if o.sameDayErr {
				r.SameDayErroneous++
			}
		}
	}
	r.GapCDF = stats.NewCDF(gaps)
}

// temporalOutcomeFor measures one non-pre-200 link's §5.1 partition —
// shared by the batch fan-out above and ClassifyLink.
func (s *Study) temporalOutcomeFor(rec *LinkRecord) temporalOutcome {
	o := temporalOutcome{analyzed: true}
	first, ok := s.archFirst(rec.URL)
	if !ok {
		o.noCopy = true
		return o
	}
	if first.Day.Before(rec.Added) {
		// §5.1 sets aside the 619 links archived before posting.
		o.prePost = true
		return o
	}
	gap := first.Day.Sub(rec.Added)
	o.gap, o.hasGap = float64(gap), true
	if gap <= 0 {
		o.sameDay = true
		o.sameDayErr = SnapshotErroneous(first)
	}
	return o
}

// spatialOutcome is one never-archived link's §5.2 measurements,
// merged in NoCopies order.
type spatialOutcome struct {
	dir, host int
	query     bool
	typo      bool
	truncated bool
}

// SpatialAnalysis performs §5.2 on the never-archived links: CDX
// coverage counts at directory and hostname granularity (Figure 6),
// typo detection via a unique edit-distance-1 archived URL, and the
// query-parameter share. The coverage counts are binary searches over
// the frozen archive's sorted prefix ranges (DESIGN.md §3.2); the typo
// probe's per-domain candidate set is built once in the study memo,
// however many links share the domain.
func (s *Study) SpatialAnalysis(r *Report) {
	outs := make([]spatialOutcome, len(r.NoCopies))
	ParallelFor(len(r.NoCopies), s.Config.Concurrency, func(k int) {
		outs[k] = s.spatialOutcomeFor(&r.Records[r.NoCopies[k]])
	})

	dirCounts := make([]int, 0, len(outs))
	hostCounts := make([]int, 0, len(outs))
	for k := range outs {
		o := &outs[k]
		dirCounts = append(dirCounts, o.dir)
		hostCounts = append(hostCounts, o.host)
		if o.dir == 0 {
			r.ZeroDir++
		}
		if o.host == 0 {
			r.ZeroHost++
		}
		if o.query {
			r.QueryParamLinks++
		}
		if o.typo {
			r.Typos++
			r.TypoLinks = append(r.TypoLinks, r.NoCopies[k])
		}
		if o.truncated {
			r.TypoScanTruncated++
		}
	}
	r.DirCounts = stats.NewCDFInts(dirCounts)
	r.HostCounts = stats.NewCDFInts(hostCounts)
}

// spatialOutcomeFor measures one never-archived link's §5.2 facts —
// shared by the batch fan-out above and ClassifyLink.
func (s *Study) spatialOutcomeFor(rec *LinkRecord) spatialOutcome {
	var o spatialOutcome
	o.dir = s.Arch.CountInDirectory(rec.URL)
	o.host = s.Arch.CountOnHostname(rec.URL)
	o.query = urlutil.HasQuery(rec.URL)
	o.typo, o.truncated = isTypo(s.Memo(), rec.URL, typoScanLimit)
	return o
}

// typoScanLimit bounds the per-domain archived-URL enumeration the
// typo probe compares against. Domains exceeding it are counted in
// Report.TypoScanTruncated rather than silently clipped.
const typoScanLimit = 4000

// isTypo applies the §5.2 methodology: the dead URL is deemed a
// potential typo iff exactly one archived URL under the same domain
// has edit distance exactly 1. The second return reports whether the
// domain scan hit limit (so large domains can be surfaced instead of
// silently misclassified).
func isTypo(memo *archive.Memo, url string, limit int) (typo, truncated bool) {
	domain := urlutil.Domain(url)
	if domain == "" {
		return false, false
	}
	cands := memo.DomainCandidates(domain, limit)
	self := stripScheme(url)
	matches := 0
	// Only candidates within one byte of self's length can be at
	// distance 1; one bounded edit-distance computation each.
	for n := len(self) - 1; n <= len(self)+1 && matches < 2; n++ {
		cands.Each(n, func(sc string) bool {
			// sc == self is distance 0: an http/https variant, not a typo.
			if sc != self && urlutil.EditDistanceAtMost(sc, self, 1) {
				matches++
			}
			return matches < 2
		})
	}
	return matches == 1, cands.Truncated()
}

// stripScheme drops the scheme so http/https variants of the same URL
// compare at distance 0 in the typo probe, as the paper's URL
// comparison does.
func stripScheme(url string) string {
	if i := strings.Index(url, "://"); i >= 0 {
		return url[i+3:]
	}
	return url
}

// SnapshotErroneous applies the study's usability heuristic to one
// archived copy (§3, §5.1: "erroneous (i.e., 404, soft-404, etc.)"):
//
//   - any 4xx/5xx initial status is erroneous;
//   - an initial 200 whose body reads like parked-domain or
//     page-not-found boilerplate is a soft error;
//   - a redirect capture is erroneous when it failed to land on a 200
//     or bounced to the site root (the mass-redirect signature).
func SnapshotErroneous(s archive.Snapshot) bool {
	switch {
	case s.InitialStatus >= 400:
		return true
	case s.InitialStatus == 200:
		return softerror.LooksParked(s.Body) || softerror.LooksErrorBoilerplate(s.Body)
	case s.IsRedirect():
		if s.FinalStatus != 200 {
			return true
		}
		return isRootTarget(s.RedirectTo)
	default:
		return true // 1xx or malformed captures are not usable copies
	}
}

// isRootTarget reports whether target points at a site root. Query
// strings and fragments are ignored: "http://h.com/?ref=x" is still
// the homepage, the same mass-redirect signature as a bare "/".
func isRootTarget(target string) bool {
	rest := stripScheme(target)
	if i := strings.IndexAny(rest, "?#"); i >= 0 {
		rest = rest[:i]
	}
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		return rest[i:] == "/" || rest[i:] == ""
	}
	return true
}
