#!/usr/bin/env bash
# Builds the benchmark from source and runs it; BENCHMARK.json's command.
# Run from the root of a checkout: bash bench/run.sh [flags], see README.md.
# Everything the build writes stays under .bench_build/ in the checkout.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local

# go build is incremental: after the first run it only re-checks the cache.
go build -C bench -o "$build/qap-bench" .
exec "$build/qap-bench" "$@"
