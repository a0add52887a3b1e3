#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
# Everything it writes (Go build cache, binary, miner datadirs, results)
# stays inside the checkout: .bench_build/ and benchmark/out/.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local
go build -C benchmark -o "$root/.bench_build/bench" .
exec "$root/.bench_build/bench" "$@"
