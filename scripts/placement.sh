#!/usr/bin/env bash
# Print where the linker placed core.(*Prepared).MedianRank in the serving
# benchmark's binary: its address, and that address mod 64. explore-cold's
# consensus class spends most of its time in that function's loop, and
# its speed moves with the loop's place relative to 64-byte lines, so a
# change that moves the function can move that class with no change to
# its code (ROADMAP, layout-sensitive consensus class). Run it on both
# sides of a change to tell placement from a real gain or loss.
#
# The binary is built exactly as servebench/run.sh builds it, into the
# same .bench_build directory at the repository root.
#
# Usage: scripts/placement.sh
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C servebench build -o "$build/servebench" .
sym='repro/internal/core.(*Prepared).MedianRank'
addr="$(go tool nm "$build/servebench" | awk -v s="$sym" '$3 == s && $2 == "T" { print $1 }')"
if [ -z "$addr" ]; then
  echo "placement: $sym not found in $build/servebench" >&2
  exit 1
fi
echo "$sym 0x$addr mod64=$((16#$addr % 64))"
