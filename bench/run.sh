#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build
# writes — the Go build cache included — stays under .bench_build in
# the checkout, so a run reads and writes nothing outside it.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -o "$build/permadead-bench" ./bench
exec "$build/permadead-bench" "$@"
