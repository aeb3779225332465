#!/usr/bin/env bash
# Run the repeated-query benchmark suite and record the perf trajectory.
# The full report also embeds a quick-measured smoke-size section, which
# scripts/benchdiff.sh uses as the size-for-size regression baseline.
# The report also carries the learning-workload arm (learn/alpha-fit: the
# Section 5.2 recursive α refinement over the engine's Ranker interface)
# and the consensus-semantics arms (semantics/*: Global-Topk, Expected-Rank
# and Median-Rank through the unified engine).
# With a second argument — an earlier report measured on the same host,
# typically the parent commit's — every arm both reports share is also
# recorded as a before/after pair under "baseline".
# Usage: scripts/bench.sh [OUT.json] [BASELINE.json]
#        (default OUT: BENCH_19.json in the repo root)
set -euo pipefail
cd "$(dirname "$0")/.."
out="${1:-BENCH_19.json}"
if [ -n "${2:-}" ]; then
  go run ./cmd/bench -out "$out" -baseline "$2"
else
  go run ./cmd/bench -out "$out"
fi
