package federation

import (
	"container/heap"
	"sort"
	"sync/atomic"
	"time"

	"permadead/internal/archive"
	"permadead/internal/hashx"
	"permadead/internal/simclock"
	"permadead/internal/urlutil"
)

// Member is one archive in the federation: a deterministic view over
// the base archive, thinned by coverage and a retention policy, with
// its own lookup-latency model and a liveness flip for degraded-mode
// drills.
type Member struct {
	Spec MemberSpec

	base *archive.Archive
	// identity is true when the view keeps everything — full coverage
	// under keep-all — so reads can return the base archive's slices
	// untouched. This fast path is what makes the single-member
	// federation byte-identical to the bare archive.
	identity bool
	seed     uint64
	down     atomic.Bool
}

// Down reports whether the member is administratively down.
func (m *Member) Down() bool { return m.down.Load() }

// Identity reports whether the member's view keeps every capture of the
// base archive: full coverage under the keep-all policy.
func (m *Member) Identity() bool { return m.identity }

// SetDown flips the member's liveness. Queries skip down members and
// report them as member errors — degraded coverage, not failure.
func (m *Member) SetDown(down bool) { m.down.Store(down) }

// keeps reports whether the member's view retains snapshot index i of
// the (already policy-checked) key's capture list.
func (m *Member) keepsIndex(key string, i int) bool {
	if m.Spec.Coverage <= 0 || m.Spec.Coverage >= 1 {
		return true
	}
	h := hashx.Mix64(m.seed ^ hashx.FNV1a(key) ^ hashx.Mix64(uint64(i)+0x5eed))
	return float64(h>>11)/float64(1<<53) < m.Spec.Coverage
}

// Snapshots returns the member's view of url's captures, oldest first.
// The returned slice must not be modified.
func (m *Member) Snapshots(url string) []archive.Snapshot {
	base := m.base.Snapshots(url)
	if m.identity || len(base) == 0 {
		return base
	}
	key := urlutil.SchemeAgnosticKey(url)
	var out []archive.Snapshot
	for i, s := range base {
		if m.Spec.Policy.Keeps(s) && m.keepsIndex(key, i) {
			out = append(out, s)
		}
	}
	return out
}

// Latency is the member's simulated availability-lookup latency for
// url. With no explicit latency configured the member inherits the
// base archive's per-URL latency (planted slow lookups included).
func (m *Member) Latency(url string) time.Duration {
	if m.Spec.LatencyMS == 0 && m.Spec.JitterMS == 0 {
		return m.base.LookupLatency(url)
	}
	lat := time.Duration(m.Spec.LatencyMS) * time.Millisecond
	if m.Spec.JitterMS > 0 {
		h := hashx.Mix64(m.seed ^ hashx.FNV1a(urlutil.SchemeAgnosticKey(url)) ^ 0x1a7e)
		lat += time.Duration(h%uint64(m.Spec.JitterMS)) * time.Millisecond
	}
	return lat
}

// closest returns the member-visible capture of url closest to want
// among those the accept filter admits — the same first-strict-min
// scan as archive.Closest, over the member's view.
func (m *Member) closest(url string, want simclock.Day, accept func(archive.Snapshot) bool) (archive.Snapshot, bool) {
	if m.identity {
		return m.base.Closest(url, want, accept)
	}
	return closestIn(m.Snapshots(url), want, accept)
}

func closestIn(snaps []archive.Snapshot, want simclock.Day, accept func(archive.Snapshot) bool) (archive.Snapshot, bool) {
	best := -1
	bestDist := 0
	for i := range snaps {
		if accept != nil && !accept(snaps[i]) {
			continue
		}
		d := snaps[i].Day.Sub(want)
		if d < 0 {
			d = -d
		}
		if best < 0 || d < bestDist {
			best, bestDist = i, d
		}
	}
	if best < 0 {
		return archive.Snapshot{}, false
	}
	return snaps[best], true
}

// Federation serves availability lookups and snapshot reads across the
// member archives.
type Federation struct {
	Manifest Manifest

	base    *archive.Archive
	members []*Member
	hedge   float64
	budget  time.Duration
	scale   float64
	stats   *stats
}

// New builds a federation of views over the base archive.
func New(base *archive.Archive, m Manifest) (*Federation, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	hedge := m.HedgeFraction
	if hedge == 0 {
		hedge = DefaultHedgeFraction
	}
	f := &Federation{
		Manifest: m,
		base:     base,
		hedge:    hedge,
		budget:   time.Duration(m.BudgetMS) * time.Millisecond,
		scale:    m.TimeScale,
		stats:    newStats(memberNames(m)),
	}
	for i, ms := range m.Members {
		f.members = append(f.members, &Member{
			Spec:     ms,
			base:     base,
			identity: isIdentitySpec(ms),
			seed:     hashx.Mix64(uint64(ms.Seed) ^ hashx.Mix64(uint64(i)+0xfed)),
		})
	}
	return f, nil
}

func isIdentitySpec(ms MemberSpec) bool {
	fullCoverage := ms.Coverage <= 0 || ms.Coverage >= 1
	keepAll := ms.Policy == "" || ms.Policy == PolicyKeepAll
	return fullCoverage && keepAll
}

func memberNames(m Manifest) []string {
	names := make([]string, len(m.Members))
	for i, ms := range m.Members {
		names[i] = ms.Name
	}
	return names
}

// Members returns the member views in priority order.
func (f *Federation) Members() []*Member { return f.members }

// Member returns the named member, or nil.
func (f *Federation) Member(name string) *Member {
	for _, m := range f.members {
		if m.Spec.Name == name {
			return m
		}
	}
	return nil
}

// Stats returns a point-in-time copy of the federation counters.
func (f *Federation) Stats() StatsSnapshot { return f.stats.snapshot() }

// up returns the live members in priority order.
func (f *Federation) up() []*Member {
	ms := make([]*Member, 0, len(f.members))
	for _, m := range f.members {
		if !m.Down() {
			ms = append(ms, m)
		}
	}
	return ms
}

// Snapshots returns the UNION view of url's captures across live
// members, in the base archive's capture order: a snapshot is visible
// if any live member retains it. With a live identity member this is
// the base archive's own slice — byte-identical single-archive reads.
func (f *Federation) Snapshots(url string) []archive.Snapshot {
	up := f.up()
	if len(up) == 0 {
		return nil
	}
	base := f.base.Snapshots(url)
	if len(base) == 0 {
		return base
	}
	for _, m := range up {
		if m.identity {
			return base
		}
	}
	key := urlutil.SchemeAgnosticKey(url)
	var out []archive.Snapshot
	for i, s := range base {
		for _, m := range up {
			if m.Spec.Policy.Keeps(s) && m.keepsIndex(key, i) {
				out = append(out, s)
				break
			}
		}
	}
	return out
}

// SnapshotsBetween returns union-view captures with from <= Day < to.
func (f *Federation) SnapshotsBetween(url string, from, to simclock.Day) []archive.Snapshot {
	snaps := f.Snapshots(url)
	lo := sort.Search(len(snaps), func(i int) bool { return snaps[i].Day >= from })
	hi := sort.Search(len(snaps), func(i int) bool { return snaps[i].Day >= to })
	return snaps[lo:hi]
}

// First returns the earliest union-view capture of url.
func (f *Federation) First(url string) (archive.Snapshot, bool) {
	snaps := f.Snapshots(url)
	if len(snaps) == 0 {
		return archive.Snapshot{}, false
	}
	return snaps[0], true
}

// FirstAfter returns the earliest union-view capture on or after day.
func (f *Federation) FirstAfter(url string, day simclock.Day) (archive.Snapshot, bool) {
	snaps := f.Snapshots(url)
	i := sort.Search(len(snaps), func(i int) bool { return snaps[i].Day >= day })
	if i == len(snaps) {
		return archive.Snapshot{}, false
	}
	return snaps[i], true
}

// MemberSnapshot is one row of the attributed merged listing.
type MemberSnapshot struct {
	Snapshot archive.Snapshot
	Member   string
}

// fedCursor is one member's position in the attributed k-way merge.
type fedCursor struct {
	day    simclock.Day
	member int
	idx    int
}

type fedHeap []fedCursor

func (h fedHeap) Len() int { return len(h) }
func (h fedHeap) Less(i, j int) bool {
	if h[i].day != h[j].day {
		return h[i].day < h[j].day
	}
	return h[i].member < h[j].member
}
func (h fedHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *fedHeap) Push(x any)   { *h = append(*h, x.(fedCursor)) }
func (h *fedHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// MergedSnapshots lists every live member's captures of url with
// attribution, merged oldest-first via a heap-based k-way merge. Day
// ties break by member priority, then by each member's own capture
// order — the merge is stable and deterministic. A capture held by two
// members appears once per member: the listing shows coverage, the
// union view (Snapshots) shows content.
func (f *Federation) MergedSnapshots(url string) []MemberSnapshot {
	up := f.up()
	lists := make([][]archive.Snapshot, len(up))
	total := 0
	for i, m := range up {
		lists[i] = m.Snapshots(url)
		total += len(lists[i])
	}
	if total == 0 {
		return nil
	}
	h := make(fedHeap, 0, len(lists))
	for mi, list := range lists {
		if len(list) > 0 {
			h = append(h, fedCursor{day: list[0].Day, member: mi, idx: 0})
		}
	}
	heap.Init(&h)
	out := make([]MemberSnapshot, 0, total)
	for h.Len() > 0 {
		cur := &h[0]
		out = append(out, MemberSnapshot{
			Snapshot: lists[cur.member][cur.idx],
			Member:   up[cur.member].Spec.Name,
		})
		if next := cur.idx + 1; next < len(lists[cur.member]) {
			cur.idx = next
			cur.day = lists[cur.member][next].Day
			heap.Fix(&h, 0)
		} else {
			heap.Pop(&h)
		}
	}
	return out
}

// UsableGain reports how many of the URLs gain a usable capture
// (archive.AcceptUsable — the serving path's predicate) through a
// secondary member that the primary alone cannot DELIVER: either its
// view holds no usable capture, or its lookup latency exceeds the
// federation budget — the §4.1 timeout miss, which is exactly the
// failure the hedge rescues (the copy exists, the lookup never
// finishes). Down members still count — this measures the manifest's
// coverage, not the current liveness.
func (f *Federation) UsableGain(urls []string) int {
	if len(f.members) < 2 {
		return 0
	}
	gain := 0
	for _, url := range urls {
		if f.deliverable(f.members[0], url) {
			continue
		}
		for _, m := range f.members[1:] {
			if f.deliverable(m, url) {
				gain++
				break
			}
		}
	}
	return gain
}

// deliverable reports whether the member holds a usable capture of
// url and can answer inside the federation budget (no budget = any
// latency will do).
func (f *Federation) deliverable(m *Member, url string) bool {
	if f.budget > 0 && m.Latency(url) > f.budget {
		return false
	}
	return hasUsable(m, url)
}

func hasUsable(m *Member, url string) bool {
	for _, s := range m.Snapshots(url) {
		if archive.AcceptUsable(s) {
			return true
		}
	}
	return false
}
