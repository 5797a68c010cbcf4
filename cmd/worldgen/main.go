// Command worldgen generates a simulated universe and reports what it
// built: the generation summary with fate quotas vs. realized counts,
// and optionally the fleet partition and archive-federation manifest
// the universe implies.
//
// Usage:
//
//	worldgen [-scale f] [-seed n] [-flaky f] [-flaky-rate f]
//	         [-save u.pduniv] [-shards n] [-archives n]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"permadead/internal/federation"
	"permadead/internal/persist"
	"permadead/internal/shard"
	"permadead/internal/worldgen"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("worldgen: ")
	src := persist.NewSource(0.25)
	src.Register(flag.CommandLine, "scale", "seed", "flaky", "flaky-rate")
	var (
		savePath = flag.String("save", "", "persist the generated universe to this file")
		shards   = flag.Int("shards", 0, "report how an N-member fleet would partition the universe's link domains; with -save, also write a <save>.fleet.json manifest")
		archives = flag.Int("archives", 0, "derive an N-member archive-federation manifest with seed-deterministic coverage/latency skew; with -save, write it to <save>.archives.json")
	)
	flag.Parse()

	start := time.Now()
	u := worldgen.Generate(src.Params())
	fmt.Printf("generated in %.1fs\n", time.Since(start).Seconds())
	fmt.Print(u.Summary())

	if *savePath != "" {
		if err := writeFile(*savePath, func(w io.Writer) error {
			return persist.SavePaged(w, persist.FromUniverse(u))
		}); err != nil {
			log.Fatalf("save: %v", err)
		}
		fmt.Printf("saved universe (paged) to %s\n", *savePath)
	}

	if *shards > 0 {
		if err := reportShards(u, *shards, *savePath); err != nil {
			log.Fatalf("shards: %v", err)
		}
	}

	if *archives > 0 {
		if err := reportArchives(u, *archives, *savePath); err != nil {
			log.Fatalf("archives: %v", err)
		}
	}
}

// writeFile creates path and fills it with write, reporting the first
// error of the two and of the close.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeJSON writes v to path as indented JSON.
func writeJSON(path string, v any) error {
	return writeFile(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	})
}

// reportArchives derives the n-member federation manifest the
// universe's parameters imply (seed-deterministic per-archive coverage
// and latency skew) and prints it; with -save set it also lands in
// <save>.archives.json, ready for permadeadd -archives.
func reportArchives(u *worldgen.Universe, n int, savePath string) error {
	m := worldgen.FederationManifest(u.Params, n)
	if err := m.Validate(); err != nil {
		return err
	}
	fmt.Printf("\narchive federation (%d members, budget %dms):\n", len(m.Members), m.BudgetMS)
	for _, ms := range m.Members {
		cov := ms.Coverage
		if cov <= 0 || cov >= 1 {
			cov = 1
		}
		policy := ms.Policy
		if policy == "" {
			policy = federation.PolicyKeepAll
		}
		lat := "inherited"
		if ms.LatencyMS > 0 || ms.JitterMS > 0 {
			lat = fmt.Sprintf("%d+%dms", ms.LatencyMS, ms.JitterMS)
		}
		fmt.Printf("  %-18s coverage %.2f  policy %-11s latency %s\n", ms.Name, cov, policy, lat)
	}
	if savePath == "" {
		return nil
	}
	path := savePath + ".archives.json"
	if err := writeJSON(path, m); err != nil {
		return err
	}
	fmt.Printf("wrote federation manifest to %s\n", path)
	return nil
}

// reportShards previews how an n-member fleet would partition the
// generated universe: per-member owned link counts over the
// consistent-hash ring a real fleet would build from the same names.
// With -save set, the same numbers land in <save>.fleet.json, the
// manifest a fleet launcher feeds to permadeadd -shard-members and
// permadead-router -members.
func reportShards(u *worldgen.Universe, n int, savePath string) error {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("s%d", i+1)
	}
	ring, err := shard.New(names, 0)
	if err != nil {
		return err
	}
	domains := make([]string, len(u.Plan.Links))
	for i, lp := range u.Plan.Links {
		domains[i] = lp.Domain
	}
	counts := ring.OwnedCount(domains)
	fmt.Printf("\nfleet partition (%d shards, %d links):\n", n, len(domains))
	even := float64(len(domains)) / float64(n)
	for _, name := range names {
		c := counts[name]
		fmt.Printf("  %-4s %6d links (%+.1f%% vs even)\n", name, c, 100*(float64(c)-even)/even)
	}

	if savePath == "" {
		return nil
	}
	manifest := struct {
		Members    []string       `json:"members"`
		VNodes     int            `json:"vnodes"`
		Links      int            `json:"links"`
		OwnedLinks map[string]int `json:"owned_links"`
	}{Members: names, VNodes: ring.State().VNodes, Links: len(domains), OwnedLinks: counts}
	path := savePath + ".fleet.json"
	if err := writeJSON(path, manifest); err != nil {
		return err
	}
	fmt.Printf("wrote fleet manifest to %s\n", path)
	return nil
}
