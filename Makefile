# Development entry points. `make check` is what CI runs.

GO ?= go

.PHONY: check build test vet race bench benchsmoke retrysmoke

check: vet build test race retrysmoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# test includes the root smoke_test.go, which execs the real worldgen,
# inspect, permadeadd and permadead-router (skipped under -short).
test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench runs the repo's one perf harness (bench/README.md) over every
# workload at three seeds and records the result set; compare two sets
# with `go run ./bench -compare a.json b.json`. For one workload, or a
# per-layer breakdown:
#   bash bench/run.sh --workload <name> --seed 1 --seconds 10 [--trace 1]
bench:
	bash bench/run.sh -all -seeds 1,2,3 -out bench/out/results.json

# benchsmoke compiles and runs every Go micro-benchmark exactly once —
# a CI guard that they keep building and don't panic.
benchsmoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# retrysmoke runs the retry-policy ablation over a fully flaky small
# universe and fails unless the false-dead rate strictly decreases
# single-GET -> retry -> confirmation (DESIGN.md 3.4).
retrysmoke:
	$(GO) run ./cmd/ablate -scale 0.06 -seed 1 -flaky 1 -flaky-rate 0.6 -smoke
