package service

import (
	"context"
	"errors"
	"net/http"
	"time"

	"permadead/internal/archive"
	"permadead/internal/edge"
	"permadead/internal/federation"
)

// federated reports whether availability lookups should take the
// hedged multi-archive path. A single-member federation deliberately
// does NOT: the identity member answers exactly like the bare archive,
// and routing through the hedging machinery would change the served
// latency accounting (Elapsed vs. LookupLatency) on timeouts — the
// byte-parity guarantee is "defaults off IS the paper's pipeline".
func (s *Server) federated() bool {
	return s.fed != nil && len(s.fed.Members()) > 1
}

// availabilityFederation is the per-lookup federation block attached
// to /v1/availability responses on the hedged path. It never appears
// on single-archive (or single-member) responses.
type availabilityFederation struct {
	// Member names the archive whose copy won (empty on a miss).
	Member     string `json:"member,omitempty"`
	HedgeFired bool   `json:"hedge_fired,omitempty"`
	HedgeWin   bool   `json:"hedge_win,omitempty"`
	// Degraded lists members that were consulted and failed (down or
	// over budget): partial coverage surfaced with the answer, not
	// hidden behind it.
	Degraded []string `json:"degraded,omitempty"`
}

// federatedAvailability runs the hedged lookup and finishes the
// availability response. Member failures degrade the answer (listed
// in the federation block) rather than failing the request: with one
// archive down the survivors still answer, which is the point of
// federating. Only a caller-context error propagates as a failure.
func (s *Server) federatedAvailability(ctx context.Context, resp availabilityResponse, q archive.AvailabilityQuery) (any, cacheClass, error) {
	res, err := s.fed.Query(ctx, q)
	resp.LatencyMS = int64(res.Elapsed / time.Millisecond)
	info := &availabilityFederation{HedgeFired: res.HedgeFired, HedgeWin: res.HedgeWin}
	for _, me := range res.MemberErrors {
		info.Degraded = append(info.Degraded, me.Error())
	}
	resp.Federation = info
	switch {
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return nil, cacheSkip, err
	case errors.Is(err, archive.ErrAvailabilityTimeout):
		resp.TimedOut = true
	case res.Found:
		resp.Available = true
		info.Member = res.Member
		resp.Snapshot = snapshotView(res.Snapshot)
	}
	// Any error still unhandled here is partial coverage (down
	// members): the consulted survivors answered, so the response
	// stands as a degraded miss rather than a 5xx.
	return resp, availabilityClass(resp), nil
}

// federationMemberView is one member's row in /v1/federation/info.
type federationMemberView struct {
	federation.MemberSpec
	// Identity marks a full-coverage keep-all member: a view
	// indistinguishable from the base archive.
	Identity bool `json:"identity,omitempty"`
	Down     bool `json:"down"`
}

type federationInfoResponse struct {
	Members       []federationMemberView `json:"members"`
	BudgetMS      int                    `json:"budget_ms,omitempty"`
	HedgeFraction float64                `json:"hedge_fraction,omitempty"`
	TimeScale     float64                `json:"time_scale,omitempty"`
	// SampledURLs and UsableGain report the manifest's coverage value
	// over the served link population: how many sampled URLs gain a
	// usable (initial-200) copy that the primary alone lacks.
	SampledURLs int                      `json:"sampled_urls"`
	UsableGain  int                      `json:"usable_gain"`
	Epoch       int64                    `json:"epoch"`
	Stats       federation.StatsSnapshot `json:"stats"`
}

// handleFederationInfo reports the federation manifest, per-member
// liveness, hedging counters, and the manifest's usable-coverage gain
// over the sampled links. Like the shard admin plane it sits in the
// edge's admin tier: operators inspect a degraded federation precisely
// when the data plane is saturated.
func (s *Server) handleFederationInfo(w http.ResponseWriter, r *http.Request) {
	s.fedGainOnce.Do(func() {
		urls := make([]string, len(s.order))
		for i, rec := range s.order {
			urls[i] = rec.URL
		}
		s.fedGain = s.fed.UsableGain(urls)
	})
	m := s.fed.Manifest
	out := federationInfoResponse{
		BudgetMS:      m.BudgetMS,
		HedgeFraction: m.HedgeFraction,
		TimeScale:     m.TimeScale,
		SampledURLs:   len(s.order),
		UsableGain:    s.fedGain,
		Epoch:         s.fedEpoch.Load(),
		Stats:         s.fed.Stats(),
	}
	for _, mem := range s.fed.Members() {
		out.Members = append(out.Members, federationMemberView{
			MemberSpec: mem.Spec,
			Identity:   mem.Identity(),
			Down:       mem.Down(),
		})
	}
	edge.WriteJSON(w, out)
}

// handleFederationMember flips one member's liveness:
//
//	POST /v1/federation/member  {"member":"archive.today","down":true}
//
// Down members are skipped by lookups and reported as degraded
// coverage. The flip bumps the federation epoch, invalidating
// availability answers cached under the previous member population.
func (s *Server) handleFederationMember(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Member string `json:"member"`
		Down   bool   `json:"down"`
	}
	if !edge.DecodeBody(w, r, &req) {
		return
	}
	mem := s.fed.Member(req.Member)
	if mem == nil {
		edge.WriteError(w, http.StatusNotFound, "unknown_member", "no federation member %q", req.Member)
		return
	}
	if mem.Down() != req.Down {
		mem.SetDown(req.Down)
		s.fedEpoch.Add(1)
	}
	edge.WriteJSON(w, map[string]any{
		"member": req.Member,
		"down":   req.Down,
		"epoch":  s.fedEpoch.Load(),
	})
}
