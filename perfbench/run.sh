#!/usr/bin/env bash
# Builds the programs under test and the benchmark from source, then
# runs one workload:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the root of the repository. Everything it builds and
# writes stays under .bench_build/ there, including the Go build cache.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
export GOPATH="$out/gopath"

go build -o "$out/bin/" ./cmd/sweepd ./cmd/verdictd >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" --bin "$out/bin" "$@"
