#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root;
# every argument is passed through. The build cache and the binary live in
# .bench_build/ so nothing is written outside the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTMPDIR="$out" GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
