#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark (a module of
# its own that imports videocdn/internal/... through a replace on the
# checkout root) and runs it from the checkout root. Every byte the
# toolchain and the benchmark write stays under .bench_build/ and
# bench/out/ of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local GOWORK=off
go build -C "$root/bench" -o "$build/bench" .
cd "$root"
exec "$build/bench" "$@"
