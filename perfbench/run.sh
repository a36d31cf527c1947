#!/usr/bin/env bash
# Builds perfbench from source, then runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload suite_cold --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (Go build cache, binary, scratch cache
# directories) stays under .bench_build/ in the current directory, so
# no clock inside perfbench ever covers compilation.
set -euo pipefail
root=$PWD
out=$root/.bench_build
mkdir -p "$out"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
