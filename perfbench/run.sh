#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run it from
# the repository root; arguments pass through to the benchmark:
#
#   bash perfbench/run.sh --workload predict-miss --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh steady --runs 10 --seconds 15
#
# Everything the Go toolchain writes (build cache, module cache, telemetry)
# stays under .bench_build in the checkout.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
