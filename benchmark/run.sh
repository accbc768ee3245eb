#!/usr/bin/env bash
# Builds omnimark from source inside the checkout and runs it from the
# repository root with the arguments given:
#
#   bash benchmark/run.sh --workload triv_warm --seed 1 --seconds 12 --trace 0
#
# Everything the build leaves behind — Go's build cache, its scratch
# directory, the binary — goes under .bench_build/ in the checkout. In
# a directory without the repository's sources the build fails and so
# does this script.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -C benchmark -buildvcs=false -o "$build/omnimark" .
exec "$build/omnimark" "$@"
