#!/usr/bin/env bash
# Builds the benchmark harness and runs it. Run from the root of a
# checkout; every argument is passed on to pgbbench:
#
#   bash bench/run.sh --workload grid-cold --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh diff set1 set2
#
# Builds, the Go build cache and run scratch space all stay under the
# build directory ($CARGO_TARGET_DIR, default .bench_build) inside the
# checkout, so a run reads and writes nothing outside it.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" # the go command's telemetry counters
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off # the module needs nothing beyond the standard library
export GOSUMDB=off
export GOWORK=off
export GOFLAGS=
export CARGO_TARGET_DIR="$build"

(cd "$root/bench" && go build -buildvcs=false -o "$build/pgbbench" .)
exec "$build/pgbbench" "$@"
