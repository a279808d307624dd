#!/usr/bin/env bash
# Builds the host-time benchmark from the checkout it is run in and runs it
# with the given arguments (see hostbench/README.md):
#
#   bash hostbench/run.sh --workload figures --seed 0 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binary and the work files.
set -euo pipefail

root="$PWD"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

# Compiler output goes to stderr so the result stays the last stdout line.
(cd "$root/hostbench" && go build -o "$out/hostbench" .) >&2
exec "$out/hostbench" --out "$out" "$@"
