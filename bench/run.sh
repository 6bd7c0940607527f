#!/usr/bin/env bash
# Builds the benchmark from source and runs it, writing nothing outside
# the checkout: the binary, the Go build cache and the Go tool's own
# configuration and counters all go under .bench_build/ at the
# repository root. Run from the repository root; arguments are passed on
# (see bench/README.md).
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go -C bench build -o "$build/bench" .
exec "$build/bench" "$@"
