#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash bench/run.sh -workload sat64_wireless -seed 1 -seconds 20 -trace 0
#
# Every build product, cache and temporary file stays under .bench_build/
# in the current directory. Outside a full checkout (no wimc module next to
# bench/) the build fails and the script exits nonzero without a result.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd bench && go build -o "$build/bench" .)
exec "$build/bench" "$@"
