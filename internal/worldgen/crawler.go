package worldgen

import (
	"errors"
	"strings"

	"permadead/internal/archive"
	"permadead/internal/hashx"
	"permadead/internal/simclock"
	"permadead/internal/simweb"
	"permadead/internal/urlutil"
)

// Crawler captures URLs from the simulated web into the archive, the
// way the Internet Archive's crawlers capture the live web. A capture
// records the page exactly as it answered on the capture day — if the
// URL was already broken, the archive faithfully stores the erroneous
// response, which is precisely how dead links end up with unusable
// copies (§5.1).
type Crawler struct {
	World   *simweb.World
	Archive *archive.Archive
}

// crawlMaxRedirects bounds redirect following during capture.
const crawlMaxRedirects = 5

// NewCrawler wires a crawler between a world and an archive.
func NewCrawler(w *simweb.World, a *archive.Archive) *Crawler {
	return &Crawler{World: w, Archive: a}
}

// ErrUnreachable is returned when a capture attempt could not reach
// the server at all (DNS failure or timeout); the Wayback Machine
// stores no snapshot in that case.
var ErrUnreachable = errors.New("worldgen: target unreachable at capture time")

// Capture fetches url from the world as of day and stores a snapshot.
// It returns the stored snapshot, or ErrUnreachable when the host did
// not answer (in which case nothing is stored).
//
// Captures bypass transient-fault injection (simweb.NoFaultAttempt):
// archival crawlers requeue and retry offline until a fetch completes,
// so a flaky day changes when a capture lands, not whether it records
// the page's true state.
func (c *Crawler) Capture(url string, day simclock.Day) (archive.Snapshot, error) {
	res := c.World.GetAttempt(url, day, simweb.NoFaultAttempt)
	if res.Kind != simweb.KindResponse {
		return archive.Snapshot{}, ErrUnreachable
	}

	snap := archive.Snapshot{
		URL:           url,
		Day:           day,
		InitialStatus: res.Status,
	}

	// Follow redirects to determine the final status and body, as the
	// Wayback crawler does when it records a capture chain.
	current := url
	cur := res
	for hops := 0; cur.Status >= 300 && cur.Status < 400 && cur.Location != "" && hops < crawlMaxRedirects; hops++ {
		next := simweb.ResolveLocation(schemeOf(current), urlutil.Hostname(current), cur.Location)
		if hops == 0 {
			snap.RedirectTo = next
		}
		nres := c.World.GetAttempt(next, day, simweb.NoFaultAttempt)
		if nres.Kind != simweb.KindResponse {
			// Redirect into the void: keep what we have.
			snap.FinalStatus = cur.Status
			c.store(&snap, cur.Body)
			return snap, nil
		}
		current, cur = next, nres
	}
	snap.FinalStatus = cur.Status
	c.store(&snap, cur.Body)
	return snap, nil
}

func (c *Crawler) store(snap *archive.Snapshot, body string) {
	if len(body) > archive.BodyLimit {
		body = body[:archive.BodyLimit]
	}
	snap.Body = body
	snap.Digest = hashx.FNV1a(body)
	c.Archive.Add(*snap)
}

func schemeOf(url string) string {
	if strings.HasPrefix(strings.ToLower(url), "https://") {
		return "https"
	}
	return "http"
}
