package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"permadead/internal/shard"
)

// fleet is two shard-mode servers behind a router, all in-process on
// loopback.
type fleet struct {
	shards []*stack
	router *shard.Router
	srv    *http.Server
	base   string
}

func bootFleet(e *env) (*fleet, []*conn, time.Duration, error) {
	t0 := time.Now()
	names := []string{"s1", "s2"}
	f := &fleet{}
	members := make([]shard.Member, len(names))
	for i, name := range names {
		cfg := serviceConfig(e.fx)
		cfg.ShardName = name
		cfg.ShardMembers = names
		st, err := newStack(pagedOpener(e.fx.mainPath), cfg)
		if err == nil {
			err = st.start()
		}
		if err != nil {
			f.close()
			return nil, nil, 0, err
		}
		f.shards = append(f.shards, st)
		members[i] = shard.Member{Name: name, Base: st.base}
	}
	router, err := shard.NewRouter(shard.RouterConfig{Members: members})
	if err != nil {
		f.close()
		return nil, nil, 0, err
	}
	f.router = router
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.close()
		return nil, nil, 0, err
	}
	f.srv = &http.Server{Handler: router.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go f.srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on close
	f.base = "http://" + ln.Addr().String()

	// Ready means a request crosses the router and a shard answers.
	first := newConn()
	var sr struct {
		Total int `json:"total"`
	}
	if err := first.getJSON(f.base+"/v1/sample?n=1", &sr); err != nil || sr.Total == 0 {
		f.close()
		return nil, nil, 0, fmt.Errorf("fleet not ready: total %d, err %v", sr.Total, err)
	}
	boot := time.Since(t0)
	rest, err := newConns(e.clients-1, f.base)
	if err != nil {
		f.close()
		return nil, nil, 0, err
	}
	return f, append([]*conn{first}, rest...), boot, nil
}

func (f *fleet) close() {
	if f.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		f.srv.Shutdown(ctx) //nolint:errcheck // best effort at round end
		cancel()
	}
	if f.router != nil {
		f.router.Close()
	}
	for _, st := range f.shards {
		st.close() //nolint:errcheck
	}
}

// roundFleet warms a pool through the router, then draws zipf(1.2)
// classify GETs through it and finishes with sequential scatter-gather
// sample reads: ring lookup, proxy hop, gather.
func roundFleet(e *env, round int) (roundResult, error) {
	var rr roundResult
	f, conns, boot, err := bootFleet(e)
	if err != nil {
		return rr, err
	}
	defer f.close()
	defer closeConns(conns)
	rr.boot = boot

	pool := hotPool(e, e.sz.hotPool)
	if err := warm(e, conns, f.base, pool); err != nil {
		return rr, err
	}
	ops := zipfOps(e.rng("fleet_2shard", round), pool, e.sz.fleetGets, 1.2, epClassify)
	res := closedLoop(conns, f.base, ops, e.fx.oracle, e.fails, e.tr)
	finishLoop(&rr, res)

	var scatter durs
	c := conns[0]
	target := fmt.Sprintf("%s/v1/sample?n=%d", f.base, e.sz.scatterN)
	wantTotal := len(e.fx.oracle.urls)
	for i := 0; i < e.sz.scatters; i++ {
		rr.attempted++
		var sr struct {
			Total   int      `json:"total"`
			URLs    []string `json:"urls"`
			Partial bool     `json:"partial"`
		}
		t0 := time.Now()
		err := c.getJSON(target, &sr)
		t1 := time.Now()
		e.tr.add("client.scatter", 0, i, t0, t1)
		wantN := min(e.sz.scatterN, wantTotal)
		if err == nil && (sr.Partial || sr.Total != wantTotal || len(sr.URLs) != wantN) {
			err = fmt.Errorf("scatter: partial=%v total=%d (want %d) urls=%d (want %d)", sr.Partial, sr.Total, wantTotal, len(sr.URLs), wantN)
		}
		if err != nil {
			rr.failed++
			e.fails.add(err)
			continue
		}
		scatter = append(scatter, t1.Sub(t0))
	}
	rr.auxP50MS = scatter.p50us() / 1000

	var rm struct {
		Degraded int64 `json:"degraded"`
	}
	if err := c.getJSON(f.base+"/metrics", &rm); err != nil {
		return rr, err
	}
	rr.layer = merge(clientLayer(res), map[string]float64{
		"shard.router.degraded": float64(rm.Degraded),
		"service.new_ms":        f.shards[0].newMS,
	})
	return rr, nil
}
