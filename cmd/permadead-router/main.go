// Command permadead-router fronts a fleet of permadeadd shards: it
// owns the consistent-hash ring over registrable domains, proxies each
// single-link verdict to the owning shard, splits batch requests by
// owner and re-merges the streamed lines in input order, and
// scatter-gathers population queries across every shard — degrading to
// flagged partial results (with Retry-After) when a shard is down
// instead of erroring or hanging.
//
// Usage:
//
//	permadead-router -members s1=127.0.0.1:9001,s2=127.0.0.1:9002 \
//	                 [-addr host:port] [-addr-file file]
//
// Member names must match each shard's -shard-name; the shards must
// have been started with the same member list (the ring is rebuilt
// identically everywhere from the names alone). Runtime rebalances go
// through POST /admin/rebalance {"domain": ..., "to": ...}. Everything
// else — virtual nodes per member, the per-shard deadline, health-poll
// cadence, Retry-After, the rebalance drain bound — is a constant or a
// RouterConfig default in internal/shard, and the batch bound is
// edge.MaxBatchLinks. On SIGINT/SIGTERM the router drains: new proxied
// requests get 503 while in-flight ones finish.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"permadead/internal/shard"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("permadead-router: ")
	var (
		addr     = flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
		addrFile = flag.String("addr-file", "", "write the bound address to this file once listening (for scripts)")
		members  = flag.String("members", "", "comma-separated name=host:port fleet members, in ring order")
	)
	flag.Parse()

	fleet, err := parseMembers(*members)
	if err != nil {
		log.Fatal(err)
	}
	r, err := shard.NewRouter(shard.RouterConfig{Members: fleet})
	if err != nil {
		log.Fatal(err)
	}
	defer r.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: r.Handler()}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Fatal(err)
		}
	}()
	log.Printf("routing for [%s] on http://%s",
		strings.Join(r.Ring().Members(), " "), ln.Addr())
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			log.Fatal(err)
		}
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	sig := <-sigs
	log.Printf("%v received, shutting down...", sig)
	r.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	srv.Shutdown(ctx) //nolint:errcheck // the router holds no state worth a forced drain
}

// parseMembers decodes "-members s1=host:port,s2=host:port".
func parseMembers(spec string) ([]shard.Member, error) {
	if spec == "" {
		return nil, fmt.Errorf("-members is required (name=host:port, comma-separated)")
	}
	var out []shard.Member
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, base, ok := strings.Cut(part, "=")
		if !ok || name == "" || base == "" {
			return nil, fmt.Errorf("malformed member %q, want name=host:port", part)
		}
		out = append(out, shard.Member{Name: name, Base: base})
	}
	return out, nil
}
