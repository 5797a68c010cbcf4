package service

import (
	"fmt"
	"net/http"
	"slices"

	"permadead/internal/edge"
	"permadead/internal/shard"
	"permadead/internal/urlutil"
)

// initShard turns on fleet membership: build the initial ring from the
// configured member list and precompute each sampled record's
// registrable domain for the owned /v1/sample view.
func (s *Server) initShard(cfg Config) error {
	ring, err := shard.New(cfg.ShardMembers, shard.DefaultVNodes)
	if err != nil {
		return fmt.Errorf("service: building shard ring: %w", err)
	}
	if !slices.Contains(ring.Members(), cfg.ShardName) {
		return fmt.Errorf("service: shard name %q is not in the member list %v", cfg.ShardName, cfg.ShardMembers)
	}
	s.shardName = cfg.ShardName
	s.ring.Store(ring)
	s.recordDomains = make([]string, len(s.order))
	for i, rec := range s.order {
		s.recordDomains[i] = urlutil.Domain(rec.URL)
	}
	s.edge.Publish("shard", func() any { return s.shardInfo() })
	return nil
}

// ownedCount tallies how many sampled links this member currently owns.
func (s *Server) ownedCount() (owned, total int) {
	r := s.ring.Load()
	for _, d := range s.recordDomains {
		if r.Owner(d) == s.shardName {
			owned++
		}
	}
	return owned, len(s.order)
}

// shardInfoResponse is GET /v1/shard/info and the /metrics "shard" key:
// this member's identity and its current slice of the population.
type shardInfoResponse struct {
	Name       string   `json:"name"`
	Generation int64    `json:"generation"`
	VNodes     int      `json:"vnodes"`
	Members    []string `json:"members"`
	OwnedLinks int      `json:"owned_links"`
	TotalLinks int      `json:"total_links"`
}

func (s *Server) shardInfo() shardInfoResponse {
	st := s.ring.Load().State()
	owned, total := s.ownedCount()
	return shardInfoResponse{
		Name:       s.shardName,
		Generation: st.Generation,
		VNodes:     st.VNodes,
		Members:    st.Members,
		OwnedLinks: owned,
		TotalLinks: total,
	}
}

func (s *Server) handleShardInfo(w http.ResponseWriter, r *http.Request) {
	edge.WriteJSON(w, s.shardInfo())
}

// handleShardOwnership installs a router-pushed ring update. Updates
// are ordered by generation: a state older than what this shard holds
// answers 409 so a delayed push can never roll ownership back. Equal
// generations are accepted idempotently (the router retries pushes).
func (s *Server) handleShardOwnership(w http.ResponseWriter, r *http.Request) {
	var st shard.RingState
	if !edge.DecodeBody(w, r, &st) {
		return
	}
	next, err := shard.FromState(st)
	if err != nil {
		edge.WriteError(w, http.StatusBadRequest, "bad_ring", "%v", err)
		return
	}
	for {
		cur := s.ring.Load()
		if next.Generation() < cur.Generation() {
			edge.WriteError(w, http.StatusConflict, "stale_ring",
				"pushed generation %d is older than installed generation %d", next.Generation(), cur.Generation())
			return
		}
		if s.ring.CompareAndSwap(cur, next) {
			break
		}
	}
	owned, total := s.ownedCount()
	edge.WriteJSON(w, map[string]any{
		"name":        s.shardName,
		"generation":  next.Generation(),
		"owned_links": owned,
		"total_links": total,
	})
}
