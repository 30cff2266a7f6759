#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the arguments
# given, from the checkout's root:
#
#   bash perfbench/run.sh --workload rubis-bidding --seed 1 --seconds 28 --trace 0
#
# Everything the build and the run write (Go build cache, binary, temporary
# data directories and profiles) stays under .bench_build in the root.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/gocache" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
