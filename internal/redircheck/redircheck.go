// Package redircheck validates archived redirections (§4.2). IABot
// conservatively ignores every archived copy in which a redirection
// was observed, because many redirections are erroneous (a retired
// news URL redirecting to the site's homepage). The paper shows that
// cross-examining redirect *targets* across sibling URLs separates the
// two cases:
//
//	A historical redirection for URL u is non-erroneous if the URL it
//	redirected to was unique — no other URL in the same directory had
//	the same redirection around that time.
//
// For each 3xx capture, up to MaxSiblings other URLs in the same
// directory are examined within ±WindowDays of the capture. If any
// sibling redirected to the same target, the redirect is a mass
// (erroneous) redirect; if the target is unique among siblings, the
// copy is judged usable.
package redircheck

import (
	"strings"

	"permadead/internal/archive"
	"permadead/internal/simclock"
	"permadead/internal/urlutil"
)

// Checker validates archived redirects against sibling captures. It
// holds no mutable state and archive.Archive is safe for concurrent
// reads, so one Checker may be shared by concurrent goroutines. On a
// frozen archive each sibling listing is a sorted prefix range of the
// CDX index (DESIGN.md §3.2), not a host-wide scan.
type Checker struct {
	Archive *archive.Archive
	// WindowDays is the ± window around the capture in which sibling
	// redirects are comparable (paper: 90).
	WindowDays int
	// MaxSiblings bounds how many sibling URLs are examined (paper: 6).
	MaxSiblings int
	// CandidateLimit bounds the CDX enumeration used to find siblings.
	CandidateLimit int
}

// NewChecker returns a Checker with the paper's parameters.
func NewChecker(a *archive.Archive) *Checker {
	return &Checker{Archive: a, WindowDays: 90, MaxSiblings: 6, CandidateLimit: 500}
}

// Verdict is the outcome of validating one archived redirect.
type Verdict struct {
	// NonErroneous is true when the redirect target is unique among
	// compared siblings — the copy is usable.
	NonErroneous bool
	// Target is u's normalized redirect target.
	Target string
	// SiblingsCompared is how many sibling redirects were examined.
	SiblingsCompared int
	// SharedWith counts siblings that redirected to the same target.
	SharedWith int
}

// Check validates the redirect observed in snapshot snap of url.
// Conservatively, a redirect with no comparable siblings cannot be
// confirmed unique and is judged erroneous — matching the paper, which
// only rescued copies whose uniqueness it could establish.
func (c *Checker) Check(url string, snap archive.Snapshot) Verdict {
	// Targets compare scheme- and www-insensitively: a site answering
	// on both http and https redirects to "its homepage" either way.
	v := Verdict{Target: urlutil.SchemeAgnosticKey(snap.RedirectTo)}
	if !snap.IsRedirect() || snap.RedirectTo == "" {
		return v
	}
	window := c.WindowDays
	if window <= 0 {
		window = 90
	}
	maxSib := c.MaxSiblings
	if maxSib <= 0 {
		maxSib = 6
	}
	limit := c.CandidateLimit
	if limit <= 0 {
		limit = 500
	}

	host := urlutil.Hostname(url)
	dir := dirPrefixOf(url)
	selfPath := pathQueryOf(url)

	candidates := c.Archive.CDXList(archive.CDXQuery{
		Host:       host,
		PathPrefix: dir,
		Limit:      limit,
	})

	seenSibling := make(map[string]struct{})
	for _, cand := range candidates {
		if v.SiblingsCompared >= maxSib {
			break
		}
		candPath := pathQueryOf(cand.URL)
		if candPath == selfPath {
			continue
		}
		if _, dup := seenSibling[candPath]; dup {
			continue
		}
		// Find a redirect capture of this sibling within the window.
		target, ok := c.siblingRedirectTarget(cand.URL, snap, window)
		if !ok {
			continue
		}
		seenSibling[candPath] = struct{}{}
		v.SiblingsCompared++
		if target == v.Target {
			v.SharedWith++
		}
	}
	v.NonErroneous = v.SiblingsCompared > 0 && v.SharedWith == 0
	return v
}

// siblingRedirectTarget returns the normalized redirect target of the
// sibling's capture closest to snap.Day within the window, if any
// redirect capture exists there.
func (c *Checker) siblingRedirectTarget(sibURL string, snap archive.Snapshot, window int) (string, bool) {
	from := snap.Day.Add(-window)
	to := snap.Day.Add(window + 1)
	var best string
	bestDist := -1
	for _, s := range c.Archive.SnapshotsBetween(sibURL, from, to) {
		if !s.IsRedirect() || s.RedirectTo == "" {
			continue
		}
		d := s.Day.Sub(snap.Day)
		if d < 0 {
			d = -d
		}
		if bestDist < 0 || d < bestDist {
			best, bestDist = urlutil.SchemeAgnosticKey(s.RedirectTo), d
		}
	}
	return best, bestDist >= 0
}

// FindValidatedCopy looks for a 3xx capture of url that validates as
// non-erroneous, returning the earliest one. Captures on or after
// `before` are ignored when before is positive (pass the day the link
// was marked permanently dead to reproduce §4.2; pass 0 to consider
// all captures). It answers "could this permanently dead link have
// been patched with a redirect copy instead?"
func (c *Checker) FindValidatedCopy(url string, before simclock.Day) (archive.Snapshot, Verdict, bool) {
	for _, s := range c.Archive.Snapshots(url) {
		if before > 0 && !s.Day.Before(before) {
			break
		}
		if !s.IsRedirect() {
			continue
		}
		if v := c.Check(url, s); v.NonErroneous {
			return s, v, true
		}
	}
	return archive.Snapshot{}, Verdict{}, false
}

func dirPrefixOf(rawURL string) string {
	pq := pathQueryOf(rawURL)
	if i := strings.IndexAny(pq, "?#"); i >= 0 {
		pq = pq[:i]
	}
	if i := strings.LastIndexByte(pq, '/'); i >= 0 {
		return pq[:i+1]
	}
	return "/"
}

func pathQueryOf(rawURL string) string {
	rest := rawURL
	if i := strings.Index(rest, "://"); i >= 0 {
		rest = rest[i+3:]
	}
	if i := strings.IndexByte(rest, '#'); i >= 0 {
		rest = rest[:i]
	}
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		return rest[i:]
	}
	return "/"
}
