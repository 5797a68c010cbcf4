package permadead

import (
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// The package graph is one table (DESIGN.md "Layers"), and this test is
// where it lives: every internal/ package sits in exactly one row, and
// `go list` must agree with what each row may import. Everything
// outside internal/ — cmd/, examples/, bench/ and this facade — is a
// host.

type layer int

const (
	leaf        layer = iota // pure helpers under all of it
	world                    // the simulated web and its generator
	dataSource               // what the paper read through APIs
	measurement              // honest measurement of both
	servingEdge              // the HTTP surface
	host                     // wires everything together
)

var layerNames = [...]string{"leaf", "world", "data source", "measurement", "serving edge", "host"}

func (l layer) String() string { return layerNames[l] }

// layerRows places each internal/ package in its row.
var layerRows = map[layer][]string{
	leaf:        {"hashx", "journal", "psl", "shingle", "simclock", "stats", "urlutil", "wikitext"},
	world:       {"simweb", "worldgen"},
	dataSource:  {"archive", "wikimedia"},
	measurement: {"core", "federation", "fetch", "iabot", "monitor", "redircheck", "report", "softerror", "waybackmedic"},
	servingEdge: {"edge", "service", "shard"},
	host:        {"ablation", "figures", "persist"},
}

// mayImport lists the rows a row's packages may import. Leaves and data
// sources import only leaves; no data-source, measurement or
// serving-edge package imports the world. Serving-edge packages also
// answer to edgeRows.
var mayImport = map[layer][]layer{
	leaf:        {leaf},
	dataSource:  {leaf},
	measurement: {leaf, dataSource, measurement},
	world:       {leaf, dataSource, measurement, world},
	servingEdge: {leaf, dataSource, measurement, servingEdge, host},
	host:        {leaf, world, dataSource, measurement, servingEdge, host},
}

// layerExceptions are imports the table forbids that stay until the
// named ROADMAP item removes them. One that no longer occurs fails the
// test, so its row goes with the import.
var layerExceptions = []struct{ from, to, until string }{
	{"monitor", "simweb", "ROADMAP item 3: LiveChecker reads the planted fault schedule, and bench/layers.go builds monitor.LiveChecker{World: ...}"},
}

// edgeRows are the serving edge's own rules. noDep bans a module path
// prefix from pkg's transitive dependencies; importers, when set, are
// the only path prefixes that may import pkg.
var edgeRows = []struct {
	pkg, why  string
	noDep     string
	importers []string
}{
	{pkg: "internal/edge", why: "edge imports no permadead package", noDep: "permadead/"},
	{pkg: "internal/shard", why: "the router does not reach into the shard server", noDep: "permadead/internal/service"},
	{pkg: "internal/shard", why: "the router proxies and merges but computes nothing", noDep: "permadead/internal/core"},
	{pkg: "internal/edge", why: "only the two serving packages and the binaries build on edge",
		importers: []string{"internal/service", "internal/shard", "cmd/"}},
}

func TestLayerTable(t *testing.T) {
	const mod = "permadead/"
	out, err := exec.Command("go", "list", "-f",
		`{{.ImportPath}}|{{join .Imports " "}}|{{join .Deps " "}}`, "./...").CombinedOutput()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, out)
	}
	type pkg struct{ imports, deps []string }
	graph := map[string]pkg{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		parts := strings.Split(line, "|")
		graph[strings.TrimPrefix(parts[0], mod)] = pkg{strings.Fields(parts[1]), strings.Fields(parts[2])}
	}

	row := map[string]layer{}
	for l, names := range layerRows {
		for _, name := range names {
			path := "internal/" + name
			if prev, dup := row[path]; dup {
				t.Errorf("%s is placed twice (%s and %s)", path, prev, l)
			}
			row[path] = l
			if _, ok := graph[path]; !ok {
				t.Errorf("%s row names %s, which does not exist", l, path)
			}
		}
	}
	rowOf := func(path string) layer {
		if l, ok := row[path]; ok {
			return l
		}
		return host
	}

	used := make([]bool, len(layerExceptions))
	for path, p := range graph {
		if _, placed := row[path]; !placed && strings.HasPrefix(path, "internal/") {
			t.Errorf("%s is in no row of the layer table", path)
		}
		from := rowOf(path)
		for _, imp := range p.imports {
			imp, ok := strings.CutPrefix(imp, mod)
			if !ok || slices.Contains(mayImport[from], rowOf(imp)) {
				continue
			}
			excused := false
			for i, ex := range layerExceptions {
				if path == "internal/"+ex.from && imp == "internal/"+ex.to {
					used[i], excused = true, true
				}
			}
			if !excused {
				t.Errorf("%s (%s) imports %s (%s)", path, from, imp, rowOf(imp))
			}
		}
	}
	for i, ex := range layerExceptions {
		if !used[i] {
			t.Errorf("exception %s -> %s no longer occurs; delete its row", ex.from, ex.to)
		}
	}

	for _, r := range edgeRows {
		if r.noDep != "" {
			for _, dep := range graph[r.pkg].deps {
				if strings.HasPrefix(dep, r.noDep) {
					t.Errorf("%s depends on %s: %s", r.pkg, dep, r.why)
				}
			}
		}
		if r.importers == nil {
			continue
		}
		for path, p := range graph {
			if !slices.Contains(p.imports, mod+r.pkg) {
				continue
			}
			if !slices.ContainsFunc(r.importers, func(pre string) bool { return strings.HasPrefix(path, pre) }) {
				t.Errorf("%s imports %s: %s", path, r.pkg, r.why)
			}
		}
	}
}
