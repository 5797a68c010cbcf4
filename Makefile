# Development entry points. `make check` is what CI runs.

GO ?= go

.PHONY: check fmt build test vet race fuzzsmoke bench benchsmoke retrysmoke examplesmoke

check: fmt vet build test race fuzzsmoke retrysmoke examplesmoke

# fmt fails when any file is not gofmt-clean, naming it.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# test includes the root smoke_test.go (skipped under -short), which
# builds all seven binaries, checks each one's -h flags against its row
# in DESIGN.md §6, and execs the real worldgen, inspect, deadlinkstudy,
# permadeadd and permadead-router.
test:
	$(GO) test ./...

# race also repeats the tests of the wiki's immutable articles, of its
# per-revision link summaries read while edits run, of MineHistory's
# memo, of the lock-free first touches of a paged wiki's articles and
# folds (TestMineHistoryConcurrentFirstTouch) and of a paged world's
# sites (TestSiteDecodesEachHostOnce), of Collect's fan-out, of
# LiveCheck's fan-out (each worker's GET and soft-404 probe, and its
# cancellation) and of the fleet router (its batch merge over owner
# streams among them) ten times, so a rare interleaving gets
# more chances; and so the monitor's mutex and its settle loop (all of
# ./internal/monitor, and the service's TestStream*,
# TestSimEditMembership and TestRepairLoopEndToEnd).
race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 -run 'TestEditConcurrentWithReads|TestLinksConcurrentWithEdit|TestCollect|TestLiveCheck|TestMineHistory|TestSiteDecodesEachHostOnce|TestFleet' ./internal/wikimedia ./internal/core ./internal/simweb ./internal/shard
	$(GO) test -race -count=10 ./internal/monitor
	$(GO) test -race -count=10 -run 'TestStream|TestSimEditMembership|TestRepairLoopEndToEnd' ./internal/service

# fuzzsmoke gives each differential fuzz target ten seconds beyond its
# seed corpus (go test takes one -fuzz target per invocation): the
# first-byte wikitext parser against the byte-at-a-time reference, the
# wikitext digest scan's links and categories against the reference
# parse tree's, wikitext.Apply's splices against the tree's edits
# rendered whole (byte for byte on text the tree renders as it reads;
# on any text, every byte outside the edited constructs kept), the
# banded edit distance against the full matrix, the URL helpers (with
# the prefix-only scheme match against its ToLower reference), and
# Normalize's byte-scan early return against its net/url body, the
# typo probe's per-domain candidate set against the full DomainURLs
# scan; FuzzPagedSections, a paged file with a damaged superblock, section
# directory, or any section but params and the arena (the archive's
# nine, the site and the wiki sections), which must open with an error
# or answer every reader without a panic; FuzzParse, the reference
# tree's render fixed point (rendering a parse and parsing it again
# renders the same bytes); FuzzCacheDifferential, the one response cache
# against the two-cache + flight-group pair it replaced;
# FuzzJournalOpen, arbitrary bytes as a flip journal file, which must
# open with an error or as a journal whose seqs increase, reopen the
# same, and take LastSeq+1 next; FuzzSoftTextDifferential, the soft-404
# check that matches its markers in place against the one that lowered
# each body in each test, on arbitrary bodies and final URLs;
# FuzzShingleDifferential, the one-pass shingle similarity against the
# token-string, map-set reference, on arbitrary bytes; and
# FuzzDirectoryDifferential, Directory's cut-in-place early return
# against its net/url body.
fuzzsmoke:
	$(GO) test -run '^$$' -fuzz='^FuzzParse$$' -fuzztime=10s ./internal/wikitext
	$(GO) test -run '^$$' -fuzz='^FuzzParseDifferential$$' -fuzztime=10s ./internal/wikitext
	$(GO) test -run '^$$' -fuzz='^FuzzDigestDifferential$$' -fuzztime=10s ./internal/wikitext
	$(GO) test -run '^$$' -fuzz='^FuzzSpliceDifferential$$' -fuzztime=10s ./internal/wikitext
	$(GO) test -run '^$$' -fuzz='^FuzzEditDistance$$' -fuzztime=10s ./internal/urlutil
	$(GO) test -run '^$$' -fuzz='^FuzzURLHelpers$$' -fuzztime=10s ./internal/urlutil
	$(GO) test -run '^$$' -fuzz='^FuzzNormalizeDifferential$$' -fuzztime=10s ./internal/urlutil
	$(GO) test -run '^$$' -fuzz='^FuzzTypoCandidates$$' -fuzztime=10s ./internal/core
	$(GO) test -run '^$$' -fuzz='^FuzzPagedSections$$' -fuzztime=10s ./internal/persist
	$(GO) test -run '^$$' -fuzz='^FuzzCacheDifferential$$' -fuzztime=10s ./internal/service
	$(GO) test -run '^$$' -fuzz='^FuzzJournalOpen$$' -fuzztime=10s ./internal/journal
	$(GO) test -run '^$$' -fuzz='^FuzzSoftTextDifferential$$' -fuzztime=10s ./internal/softerror
	$(GO) test -run '^$$' -fuzz='^FuzzShingleDifferential$$' -fuzztime=10s ./internal/shingle
	$(GO) test -run '^$$' -fuzz='^FuzzDirectoryDifferential$$' -fuzztime=10s ./internal/urlutil

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
# single-GET -> retry -> confirmation (DESIGN.md 3.4); then the
# scenario x policy grid, which fails unless retries rescue flaky
# windows, confirmation rescues paywalls and geo-blocks, and nothing
# rescues parking.
retrysmoke:
	$(GO) run ./cmd/ablate -scale 0.06 -seed 1 -flaky 1 -flaky-rate 0.6 -smoke
	$(GO) run ./cmd/ablate -scale 0.06 -seed 1 -scenarios

# examplesmoke runs every program under examples/ and fails on the
# first non-zero exit, naming it; no test runs them otherwise.
examplesmoke:
	@for d in examples/*/; do $(GO) run ./$$d > /dev/null || { echo "examplesmoke: $$d failed"; exit 1; }; done
