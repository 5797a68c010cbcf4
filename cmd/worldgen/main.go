// Command worldgen generates a simulated universe and reports what it
// built: generation summary, fate quotas vs. realized counts, and
// (optionally) a JSON dump of the link plans for external analysis.
//
// Usage:
//
//	worldgen [-scale f] [-seed n] [-save u.pduniv] [-json plans.json] [-v]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"permadead/internal/federation"
	"permadead/internal/persist"
	"permadead/internal/shard"
	"permadead/internal/worldgen"
)

func main() {
	var (
		scale    = flag.Float64("scale", 0.25, "universe scale relative to the paper's 10,000-link study")
		seed     = flag.Int64("seed", 1, "generation seed")
		jsonPath = flag.String("json", "", "write link plans as JSON to this file")
		savePath = flag.String("save", "", "persist the generated universe to this file")
		dumpPath = flag.String("dump", "", "export the simulated wiki as a MediaWiki XML dump to this file")
		verbose  = flag.Bool("v", false, "print per-fate counts")

		flaky          = flag.Float64("flaky", 0, "fraction of sites given transient-fault windows (0 = off; the study's default universe)")
		flakyRate      = flag.Float64("flaky-rate", 0.5, "per-attempt failure probability inside a fault window")
		flakyRetryWait = flag.Int("flaky-retry-after", 0, "Retry-After seconds advertised by injected 429/503 responses (0 = per-window default)")

		shards = flag.Int("shards", 0, "report how an N-member fleet would partition the universe's link domains; with -save, also write a <save>.fleet.json manifest")

		archives = flag.Int("archives", 0, "derive an N-member archive-federation manifest with seed-deterministic coverage/latency skew; with -save, write it to <save>.archives.json")
	)
	flag.Parse()

	params := worldgen.DefaultParams().Scale(*scale)
	params.Seed = *seed
	params.FlakySiteFrac = *flaky
	params.FlakyRate = *flakyRate
	params.FlakyRetryAfterSec = *flakyRetryWait

	start := time.Now()
	u := worldgen.Generate(params)
	fmt.Printf("generated in %.1fs\n", time.Since(start).Seconds())
	fmt.Print(u.Summary())

	if *verbose {
		live := map[string]int{}
		hist := map[string]int{}
		for _, lp := range u.Plan.Links {
			live[lp.Live.String()]++
			hist[lp.Hist.String()]++
		}
		fmt.Println("\nplanned live outcomes:")
		for _, k := range []string{"dns", "404", "timeout", "other", "200-real", "200-soft"} {
			fmt.Printf("  %-10s %d\n", k, live[k])
		}
		fmt.Println("planned archive histories:")
		for _, k := range []string{"pre200", "redir-valid", "redir-err", "err-only", "none"} {
			fmt.Printf("  %-12s %d\n", k, hist[k])
		}
	}

	if *savePath != "" {
		f, err := os.Create(*savePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "worldgen: %v\n", err)
			os.Exit(1)
		}
		if err := persist.SavePaged(f, persist.FromUniverse(u)); err != nil {
			fmt.Fprintf(os.Stderr, "worldgen: save: %v\n", err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("saved universe (paged) to %s\n", *savePath)
	}

	if *dumpPath != "" {
		f, err := os.Create(*dumpPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "worldgen: %v\n", err)
			os.Exit(1)
		}
		if err := u.Wiki.WriteDump(f); err != nil {
			fmt.Fprintf(os.Stderr, "worldgen: dump: %v\n", err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("wrote MediaWiki XML dump to %s\n", *dumpPath)
	}

	if *shards > 0 {
		if err := reportShards(u, *shards, *savePath); err != nil {
			fmt.Fprintf(os.Stderr, "worldgen: shards: %v\n", err)
			os.Exit(1)
		}
	}

	if *archives > 0 {
		if err := reportArchives(u, *archives, *savePath); err != nil {
			fmt.Fprintf(os.Stderr, "worldgen: archives: %v\n", err)
			os.Exit(1)
		}
	}

	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "worldgen: %v\n", err)
			os.Exit(1)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(u.Plan.Links); err != nil {
			fmt.Fprintf(os.Stderr, "worldgen: encode: %v\n", err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("wrote %d link plans to %s\n", len(u.Plan.Links), *jsonPath)
	}
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
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
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
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(manifest); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote fleet manifest to %s\n", path)
	return nil
}
