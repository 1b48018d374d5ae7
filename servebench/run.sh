#!/usr/bin/env bash
# Builds the serving-path benchmark from source and runs one workload.
# Run it from the repository root:
#
#   bash servebench/run.sh --workload align-small --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary, corpus scratch space and trace files all
# live under .bench_build/ in the current directory, so a run reads and
# writes nothing outside the checkout. The first run compiles the standard
# library into that cache; later runs only relink when the source changed.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

(cd "$root/servebench" && go build -o "$out/servebench" .) >&2
exec "$out/servebench" "$@"
