#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark and cmd/psserve
# from source into .bench_build/ in the checkout and runs one measured run.
# Everything the Go toolchain writes (build cache, temporary files) is kept
# inside the checkout too.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/bin/" ./benchmark ./cmd/psserve
exec "$build/bin/benchmark" --psserve "$build/bin/psserve" "$@"
