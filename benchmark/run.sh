#!/usr/bin/env bash
# BENCHMARK.json's command. Builds the benchmark from source into .bench_build
# in the current checkout — Go's build cache and temporary files included, so
# nothing is written outside it — and runs it with the arguments given:
#   bash benchmark/run.sh --workload sweep_plane --seed 1 --seconds 14 --trace 0
set -euo pipefail
build="$PWD/.bench_build"
bin="$build/iabc-benchmark"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local
# Rebuild only when a source is newer than the binary: the driver makes some
# 180 runs per checkout, and even a no-op `go build` costs each of them a second.
if [ ! -x "$bin" ] || [ go.mod -nt "$bin" ] || [ -n "$(find . -path ./.bench_build -prune -o -name '*.go' -newer "$bin" -print -quit)" ]; then
	go build -o "$bin" ./benchmark
fi
exec "$bin" "$@"
