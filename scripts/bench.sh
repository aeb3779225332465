#!/usr/bin/env bash
# Run the repeated-query benchmark suite and record the perf trajectory.
# The arms are the internal/benchwork registry (the same arms
# `go test -bench Suite .` runs); the full report also embeds a
# quick-measured smoke-size section, which scripts/benchdiff.sh uses as the
# size-for-size regression baseline.
# With a second argument — an earlier report measured on the same host,
# typically the parent commit's — every arm both reports share is also
# recorded as a before/after pair under "baseline".
# Usage: scripts/bench.sh [OUT.json] [BASELINE.json]
#        (default OUT: BENCH_N.json in the repo root, N one past the highest
#        existing report, so a checked-in report is never overwritten)
set -euo pipefail
cd "$(dirname "$0")/.."
out="${1:-}"
if [ -z "$out" ]; then
  last=0
  for f in BENCH_*.json; do
    n="${f#BENCH_}"
    n="${n%.json}"
    if [[ "$n" =~ ^[0-9]+$ ]] && (( 10#$n > last )); then
      last=$((10#$n))
    fi
  done
  out="BENCH_$((last + 1)).json"
fi
if [ -n "${2:-}" ]; then
  go run ./cmd/bench -out "$out" -baseline "$2"
else
  go run ./cmd/bench -out "$out"
fi
