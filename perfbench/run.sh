#!/usr/bin/env bash
# Builds the benchmark program from source and runs it with the given
# arguments, from the root of a checkout:
#
#   bash perfbench/run.sh --workload remote-fs --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in
# the checkout, the Go build cache included.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
