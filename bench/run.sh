#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with the
# given flags. Everything the build writes (binary, Go build cache) stays
# under .bench_build at the root of the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off
export XDG_CONFIG_HOME="$build/config" # where the go command keeps its telemetry counters
go -C "$root/bench" build -o "$build/amacbench" .
exec "$build/amacbench" -root "$root" "$@"
