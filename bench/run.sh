#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with the
# given arguments, from the checkout's root. Everything the build writes
# (Go build cache, temporary files, toolchain counters, the binary) stays
# under .bench_build/ in that checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off

# bench/ is a module of its own (bench/go.mod) that takes the program's
# packages from the checkout around it.
go build -C "$root/bench" -o "$build/erasmus-benchmark" .
exec "$build/erasmus-benchmark" "$@"
