#!/usr/bin/env bash
# Builds the benchmark harness from source inside the checkout and runs it.
# Everything the build and the run write — Go's build cache, the binary, spill
# and run files, HS work directories — stays under .bench_build/ in the
# checkout. Run from the repository root:
#
#   bash bench/run.sh --workload avg-1k --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh --check
set -euo pipefail

root=$PWD
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/bench/go.mod" ]; then
	echo "bench/run.sh: run from the root of a checkout that holds the mrmicro module" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export TMPDIR="$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off

# bench/ is a module of its own, so the root module's `go test ./...` never
# compiles it; this is its check (vet, the smoke size of every workload, and
# BENCHMARK.json held to metrics.go).
if [ "${1:-}" = --check ]; then
	go vet -C "$root/bench" ./...
	exec go test -C "$root/bench" -count=1 ./...
fi

go build -C "$root/bench" -o "$build/mrmicro-bench" .
exec "$build/mrmicro-bench" "$@"
