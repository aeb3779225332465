#!/usr/bin/env bash
# Builds the serving benchmark from source and runs one workload. Run it
# from the repository root:
#
#   bash servebench/run.sh --workload dashboard-hot --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binary and the benchmark's work files all stay
# under .bench_build in the current directory. The benchmark is its own
# module (servebench/go.mod) that reaches the program through a replace of
# the enclosing module, so it cannot build outside a full checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C servebench build -o "$build/servebench" .
exec "$build/servebench" "$@"
