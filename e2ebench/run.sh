#!/usr/bin/env bash
# Builds the e2ebench driver from this checkout's sources and runs it.
# Run from the repository root; every argument is passed to the driver.
# The build cache, the binary and the driver's spill files and traces
# stay under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off

(cd "$root/e2ebench" && go build -o "$build/e2ebench-bin" .)
exec "$build/e2ebench-bin" "$@"
