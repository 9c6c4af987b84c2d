#!/usr/bin/env bash
# Builds popgraph's sweep and preprocess commands and the perfbench driver
# from this checkout, then runs the driver with the given arguments:
#
#   bash perfbench/run.sh --workload replicate --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# every file a run writes stay under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -o "$out/bin/sweep" ./cmd/sweep
go build -o "$out/bin/preprocess" ./cmd/preprocess
go -C perfbench build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work" "$@"
