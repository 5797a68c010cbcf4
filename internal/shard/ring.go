// Package shard partitions the served link universe across a fleet of
// permadeadd processes and routes requests to the owner of each link.
//
// The partition key is the registrable domain (urlutil.Domain): the
// paper's population — millions of links across ~500k sites — shards
// naturally by site, and every serving-path computation that touches
// more than one URL (the §4.2 sibling check, the §5.2 spatial probes,
// the typo scan) stays within one registrable domain by construction.
// Domain-affine placement therefore keeps every single-link verdict a
// single-shard operation; only population-level queries (/v1/sample)
// must scatter.
//
// Ownership is a consistent-hash ring (Ring) over the fleet's member
// names with a fixed number of virtual nodes per member. Both the
// router and every shard build the identical ring from the same member
// list, so "who owns domain d" needs no coordination service; runtime
// rebalances travel as an explicit move list stamped with a generation
// counter (RingState), pushed to shards over their admin endpoint.
package shard

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"permadead/internal/hashx"
	"permadead/internal/urlutil"
)

// DefaultVNodes is the per-member virtual-node count. 64 vnodes keep
// the expected per-member load imbalance under a few percent for small
// fleets while keeping the ring tiny (N*64 points).
const DefaultVNodes = 64

// Move reassigns one vnode's hash range — (predecessor point, Point] —
// to a different member. Moves are the unit of rebalancing: they ride
// in RingState on top of the base member/vnode assignment, so a ring
// rebuilt anywhere from the same state resolves ownership identically.
type Move struct {
	// Point is the vnode hash whose range moves.
	Point uint64 `json:"point"`
	// To is the member receiving the range.
	To string `json:"to"`
}

// RingState is the wire form of a Ring: everything needed to rebuild
// it byte-for-byte on another process. The router pushes RingState to
// shards' /v1/shard/ownership endpoint; Generation orders updates (a
// shard rejects a state older than what it already holds).
type RingState struct {
	Generation int64    `json:"generation"`
	VNodes     int      `json:"vnodes"`
	Members    []string `json:"members"`
	Moves      []Move   `json:"moves,omitempty"`
}

// point is one position on the ring.
type point struct {
	h     uint64
	owner string
}

// Ring maps registrable domains to member names by consistent
// hashing. A Ring is immutable — rebalancing returns a new Ring — so
// readers hold it through an atomic pointer and never lock.
type Ring struct {
	state  RingState
	points []point // sorted by hash
}

// New builds the base ring over members (order-insensitive: placement
// depends only on each member's name). vnodes <= 0 selects
// DefaultVNodes.
func New(members []string, vnodes int) (*Ring, error) {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	return FromState(RingState{VNodes: vnodes, Members: members})
}

// FromState rebuilds a ring from its wire form, validating it: at
// least one member, no duplicates, every move targeting a known member
// and an existing vnode point.
func FromState(st RingState) (*Ring, error) {
	if len(st.Members) == 0 {
		return nil, fmt.Errorf("shard: ring needs at least one member")
	}
	if st.VNodes <= 0 {
		st.VNodes = DefaultVNodes
	}
	known := make(map[string]bool, len(st.Members))
	for _, m := range st.Members {
		if m == "" {
			return nil, fmt.Errorf("shard: empty member name")
		}
		if known[m] {
			return nil, fmt.Errorf("shard: duplicate member %q", m)
		}
		known[m] = true
	}
	r := &Ring{state: cloneState(st)}
	r.points = make([]point, 0, len(st.Members)*st.VNodes)
	for _, m := range st.Members {
		for i := 0; i < st.VNodes; i++ {
			r.points = append(r.points, point{h: hash64(m + "#" + strconv.Itoa(i)), owner: m})
		}
	}
	// Ties (vanishingly rare with 64-bit FNV) break by owner name so
	// every rebuild resolves identically.
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].h != r.points[j].h {
			return r.points[i].h < r.points[j].h
		}
		return r.points[i].owner < r.points[j].owner
	})
	for _, mv := range st.Moves {
		if !known[mv.To] {
			return nil, fmt.Errorf("shard: move targets unknown member %q", mv.To)
		}
		i := r.pointIndex(mv.Point)
		if i < 0 {
			return nil, fmt.Errorf("shard: move references unknown ring point %d", mv.Point)
		}
		r.points[i].owner = mv.To
	}
	return r, nil
}

// pointIndex finds the exact vnode with hash h, or -1.
func (r *Ring) pointIndex(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= h })
	if i < len(r.points) && r.points[i].h == h {
		return i
	}
	return -1
}

// State returns a deep copy of the ring's wire form.
func (r *Ring) State() RingState { return cloneState(r.state) }

// Generation returns the ring's update counter.
func (r *Ring) Generation() int64 { return r.state.Generation }

// Members returns the member list in state order.
func (r *Ring) Members() []string { return append([]string(nil), r.state.Members...) }

// Owner returns the member owning a registrable domain. The empty
// domain (unparseable URL) maps like any other key, so even junk input
// routes deterministically.
func (r *Ring) Owner(domain string) string {
	_, p := r.locate(domain)
	return p.owner
}

// OwnerOfURL is Owner over the URL's registrable domain.
func (r *Ring) OwnerOfURL(rawURL string) string {
	return r.Owner(urlutil.Domain(rawURL))
}

// locate finds the successor vnode for a domain key.
func (r *Ring) locate(domain string) (int, point) {
	h := hash64(strings.ToLower(strings.TrimSpace(domain)))
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= h })
	if i == len(r.points) {
		i = 0 // wrap: the smallest point owns the top of the hash space
	}
	return i, r.points[i]
}

// MoveDomain returns a new ring (generation+1) with the vnode range
// covering domain reassigned to member to, along with the prior owner
// and the moved point. Moving a range to its current owner returns the
// receiver unchanged (same generation) with from == to.
func (r *Ring) MoveDomain(domain, to string) (*Ring, string, uint64, error) {
	i, p := r.locate(domain)
	if p.owner == to {
		return r, p.owner, p.h, nil
	}
	valid := false
	for _, m := range r.state.Members {
		if m == to {
			valid = true
			break
		}
	}
	if !valid {
		return nil, "", 0, fmt.Errorf("shard: move targets unknown member %q", to)
	}
	st := cloneState(r.state)
	st.Generation++
	// Collapse repeated moves of the same point: the latest wins.
	replaced := false
	for k := range st.Moves {
		if st.Moves[k].Point == p.h {
			st.Moves[k].To = to
			replaced = true
			break
		}
	}
	if !replaced {
		st.Moves = append(st.Moves, Move{Point: p.h, To: to})
	}
	nr, err := FromState(st)
	if err != nil {
		return nil, "", 0, err
	}
	return nr, r.points[i].owner, p.h, nil
}

// OwnedCount tallies how many of the given domains each member owns —
// the balance report worldgen -shards prints.
func (r *Ring) OwnedCount(domains []string) map[string]int {
	out := make(map[string]int, len(r.state.Members))
	for _, m := range r.state.Members {
		out[m] = 0
	}
	for _, d := range domains {
		out[r.Owner(d)]++
	}
	return out
}

func cloneState(st RingState) RingState {
	st.Members = append([]string(nil), st.Members...)
	st.Moves = append([]Move(nil), st.Moves...)
	return st
}

// hash64 is FNV-1a over the key, pushed through a 64-bit finalizer.
// FNV alone clusters badly on short, similar keys (vnode labels differ
// in a few trailing digits), which skews successor-range sizes; the
// finalizer restores avalanche while keeping the function seedless and
// table-free, so every process in the fleet agrees with no
// coordination.
func hash64(s string) uint64 {
	return hashx.Mix64(hashx.FNV1a(s) - hashx.Golden) // the bare finalizer
}
