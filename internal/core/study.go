// Package core implements the paper's measurement pipeline end to end:
//
//	§2.4 Collect — crawl the tracking category, mine edit histories,
//	     filter to IABot-marked links, sample 10,000.
//	§3   LiveCheck — GET every sampled URL on the (simulated) live web,
//	     classify outcomes (Figure 4), and run the soft-404 probe on
//	     the 200s.
//	§4   ArchiveAnalysis — classify pre-mark archived copies: missed
//	     200-status copies (§4.1) and validated redirects (§4.2).
//	§5.1 TemporalAnalysis — posting→first-capture gaps (Figure 5).
//	§5.2 SpatialAnalysis — directory/hostname coverage of the never-
//	     archived links (Figure 6) and edit-distance-1 typo detection.
//
// The pipeline sees the world only through the same interfaces the
// paper's measurement did: the wiki's articles and edit histories, the
// archive's Availability/CDX APIs, and HTTP fetches of the live web.
// It never reads the generator's ground-truth labels.
package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"permadead/internal/archive"
	"permadead/internal/federation"
	"permadead/internal/fetch"
	"permadead/internal/iabot"
	"permadead/internal/simclock"
	"permadead/internal/urlutil"
	"permadead/internal/wikimedia"
)

// Ranker supplies site popularity ranks (the paper used Alexa). The
// simulated world implements it; a nil Ranker skips Figure 3(b).
type Ranker interface {
	// Rank returns the site's popularity rank (1 = most popular) and
	// whether the host is ranked at all.
	Rank(host string) (int, bool)
}

// Config tunes a study run.
type Config struct {
	// SampleSize is how many IABot-marked links to sample (paper:
	// 10,000). Zero means "all".
	SampleSize int
	// Seed drives sampling.
	Seed int64
	// CrawlArticles bounds the category crawl to the first N articles
	// in title order (§2.4 crawled the first 10,000). Zero means all.
	CrawlArticles int
	// RandomArticles, when true, selects links at random across ALL
	// category articles instead of the alphabetical prefix — the
	// paper's September 2022 representativeness sample.
	RandomArticles bool
	// StudyTime is the live-web measurement day.
	StudyTime simclock.Day
	// Concurrency bounds the study's parallel stages: the edit-history
	// miners (§2.4), the live-web fetch pool (§3) and the archive-side
	// analysis workers (§4–§5.2).
	// 1 runs every stage sequentially; any value produces the same
	// Report byte for byte.
	Concurrency int
}

// DefaultConfig mirrors the paper's setup.
func DefaultConfig() Config {
	return Config{
		SampleSize:    10000,
		Seed:          1,
		CrawlArticles: 10000,
		StudyTime:     simclock.StudyTime,
		Concurrency:   32,
	}
}

// Study wires the pipeline's data sources. A Study assumes Arch is
// quiescent (no captures land) for the duration of a Run; generated
// and loaded universes freeze the archive, which also makes its reads
// lock-free under the analysis fan-out.
type Study struct {
	Config Config
	Wiki   *wikimedia.Wiki
	Arch   *archive.Archive
	// Fed, when non-nil, federates archive reads across the manifest's
	// member views of Arch: the outcome stages consult the members'
	// union instead of the bare archive. Nil (the default) keeps the
	// paper's single-archive pipeline — and a single identity-member
	// federation produces byte-identical verdicts to nil.
	Fed *federation.Federation
	// Client fetches the live web as of Config.StudyTime.
	Client *fetch.Client
	// Ranks supplies Figure 3(b) data (may be nil).
	Ranks Ranker
	// MemoCap bounds how many typo-probe candidate sets the study memo
	// holds (0 = unbounded). Batch runs have a naturally bounded domain
	// population and leave it 0; a long-running server over an
	// open-ended query stream should set it (see archive.NewMemoCapped).
	MemoCap int

	memoOnce sync.Once
	memo     *archive.Memo
}

// Retrier builds a simulated-time retry policy over Client: up to
// retries attempts per check (at least one), confirm checks spaced
// spacingDays apart when confirm > 1, jitter seeded by Config.Seed.
// Its first check is pinned to StudyTime and backoff waits are elided
// (simulated time: delays are budget accounting, not wall-clock).
func (s *Study) Retrier(retries, confirm, spacingDays int) *fetch.Retrier {
	pol := fetch.DefaultRetryPolicy()
	pol.MaxAttempts = max(retries, 1)
	if confirm > 1 {
		pol.ConfirmChecks = confirm
		pol.ConfirmSpacingDays = spacingDays
	}
	pol.JitterSeed = s.Config.Seed
	r := fetch.NewRetrier(s.Client, pol)
	r.Day = int(s.Config.StudyTime)
	r.Sleep = fetch.NopSleep
	return r
}

// Memo returns the study's cache of typo-probe candidate sets over
// Arch, building it on first use. It persists across stages (and
// across repeated stage runs in benchmarks), so each domain's archived
// URLs are enumerated once however many never-archived links it holds.
// The study's other archive reads — sibling listings, coverage counts,
// the query-permutation probe — go to Arch's freeze-time index
// directly (DESIGN.md §3.2).
func (s *Study) Memo() *archive.Memo {
	s.memoOnce.Do(func() { s.memo = archive.NewMemoCapped(s.Arch, s.MemoCap) })
	return s.memo
}

// The arch* helpers route the outcome stages' per-link snapshot reads
// through the federation's union view when one is configured, and
// straight at Arch otherwise. Only these whole-history reads federate;
// the CDX-region scans (sibling analysis, coverage counts) stay on the
// primary archive — they model Wayback-side tooling, which cannot see
// other archives' holdings.

func (s *Study) archSnapshotsBetween(url string, from, to simclock.Day) []archive.Snapshot {
	if s.Fed != nil {
		return s.Fed.SnapshotsBetween(url, from, to)
	}
	return s.Arch.SnapshotsBetween(url, from, to)
}

func (s *Study) archFirst(url string) (archive.Snapshot, bool) {
	if s.Fed != nil {
		return s.Fed.First(url)
	}
	return s.Arch.First(url)
}

func (s *Study) archFirstAfter(url string, day simclock.Day) (archive.Snapshot, bool) {
	if s.Fed != nil {
		return s.Fed.FirstAfter(url, day)
	}
	return s.Arch.FirstAfter(url, day)
}

// LinkRecord is one sampled permanently-dead link with the §2.4 facts
// mined from its article's edit history.
type LinkRecord struct {
	URL     string
	Article string
	Host    string
	Domain  string
	// Added is when the link was first posted to the article.
	Added   simclock.Day
	AddedBy string
	// Marked is when IABot tagged it permanently dead.
	Marked   simclock.Day
	MarkedBy string
}

// Collect performs the §2.4 dataset construction: crawl the tracking
// category, extract dead-tagged links, mine edit histories, keep the
// IABot-marked ones, and sample. Returned records are in stable
// (sampled) order. Articles are mined on the study's fan-out; on a
// freshly opened paged wiki each worker's first touch of an article
// and its fold are published without the wiki's write lock, so mining
// uses every core.
func (s *Study) Collect() []LinkRecord {
	titles := s.Wiki.InCategory(iabot.Category)
	if s.Config.RandomArticles {
		rng := rand.New(rand.NewSource(s.Config.Seed + 7))
		rng.Shuffle(len(titles), func(i, j int) { titles[i], titles[j] = titles[j], titles[i] })
	}
	if n := s.Config.CrawlArticles; n > 0 && n < len(titles) {
		titles = titles[:n]
	}

	// Each worker reduces one title to the records of its mark-dated
	// dead links, one parse per revision the first time the wiki mines
	// the article version; the fold below dedupes across articles in
	// title order, as the sequential crawl does.
	perTitle := make([][]LinkRecord, len(titles))
	ParallelFor(len(titles), s.Config.Concurrency, func(i int) {
		hist := s.Wiki.MineHistory(titles[i])
		for _, url := range hist.Dead {
			if url == "" {
				continue
			}
			h, ok := hist.Link(url)
			if !ok || !h.MarkedDead.Valid() {
				continue
			}
			host := urlutil.Hostname(url)
			perTitle[i] = append(perTitle[i], LinkRecord{
				URL:      url,
				Article:  titles[i],
				Host:     host,
				Domain:   urlutil.DomainOfHost(host),
				Added:    h.Added,
				AddedBy:  h.AddedBy,
				Marked:   h.MarkedDead,
				MarkedBy: h.MarkedDeadBy,
			})
		}
	})

	seen := make(map[string]struct{})
	var candidates []LinkRecord
	for _, recs := range perTitle {
		for _, rec := range recs {
			if _, dup := seen[rec.URL]; dup {
				continue
			}
			seen[rec.URL] = struct{}{}
			// §2.4: the study keeps links marked by IABot, whose
			// open-source policy it can reason about.
			if rec.MarkedBy != iabot.DefaultName {
				continue
			}
			candidates = append(candidates, rec)
		}
	}

	if n := s.Config.SampleSize; n > 0 && n < len(candidates) {
		rng := rand.New(rand.NewSource(s.Config.Seed))
		rng.Shuffle(len(candidates), func(i, j int) {
			candidates[i], candidates[j] = candidates[j], candidates[i]
		})
		candidates = candidates[:n]
		sort.Slice(candidates, func(i, j int) bool { return candidates[i].URL < candidates[j].URL })
	}
	return candidates
}

// Run executes the full pipeline and assembles the Report.
func (s *Study) Run(ctx context.Context) (*Report, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	records := s.Collect()
	if len(records) == 0 {
		return nil, fmt.Errorf("core: no IABot-marked permanently dead links found")
	}
	r := &Report{Config: s.Config, Records: records}

	s.DatasetStats(r)
	if err := s.LiveCheck(ctx, r); err != nil {
		return nil, err
	}
	s.ArchiveAnalysis(r)
	s.TemporalAnalysis(r)
	s.SpatialAnalysis(r)
	s.assignVerdicts(r)
	return r, nil
}
