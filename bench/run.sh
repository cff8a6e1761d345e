#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ at the checkout root and runs it
# with the given arguments. Everything the Go toolchain writes (build
# cache, telemetry, temp files) is redirected inside the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOENV=off GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
go build -C bench -o "$build/nocbench" .
exec "$build/nocbench" "$@"
