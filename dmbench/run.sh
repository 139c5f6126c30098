#!/usr/bin/env bash
# Builds the dmcc benchmark from source and runs it from the repository
# root with the given arguments, e.g.
#
#   bash dmbench/run.sh --workload compile-mix --seed 1 --seconds 10 --trace 0
#
# The build cache, the binary, temporary files and traces all stay under
# .bench_build in the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
(cd dmbench && go build -o "$out/dmbench" .)
exec "$out/dmbench" "$@"
