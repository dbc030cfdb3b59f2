#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload.
# Run from the repository root; every argument is passed to the benchmark:
#
#   bash perfbench/run.sh --workload study --seed 0 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the benchmark's temporary state
# all stay under .bench_build/ in the checkout.
set -euo pipefail

root=$PWD
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/go-cache GOPATH=$build/gopath GOTMPDIR=$build/tmp \
	XDG_CONFIG_HOME=$build/config GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -work "$build/work" "$@"
