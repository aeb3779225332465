#!/usr/bin/env bash
# Benchmark regression gate: quick-measure the suite at smoke sizes
# (`cmd/bench -smoke -out`) and compare it against the newest checked-in
# BENCH_*.json with `cmd/bench -diff`. Dimensionless speedup ratios are the
# gated signal (they survive machine changes between the baseline and CI);
# the gate is deliberately generous — warn-only annotations for drift, a
# non-zero exit only for >5x regressions — so perf rot is visible per PR
# without flaking on runner noise. BENCH files since BENCH_5 embed a
# quick-measured smoke section, making the comparison size-for-size.
#
# Usage:
#   scripts/benchdiff.sh                 # baseline = newest BENCH_*.json
#   scripts/benchdiff.sh BENCH_4.json    # explicit baseline
#   scripts/benchdiff.sh BASE NEW.json   # compare an existing report
# Env: BENCHDIFF_FAIL_RATIO (default 5), BENCHDIFF_WARN_RATIO (default 1.5).
set -euo pipefail
cd "$(dirname "$0")/.."

base="${1:-}"
if [ -z "$base" ]; then
  base="$(ls BENCH_*.json | sort -V | tail -n1)"
fi
[ -f "$base" ] || { echo "benchdiff: no baseline report ($base)" >&2; exit 1; }

new="${2:-}"
tmp=""
if [ -z "$new" ]; then
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' EXIT
  new="$tmp/bench_smoke.json"
  echo "benchdiff: quick-measuring the suite at smoke sizes…"
  go run ./cmd/bench -smoke -out "$new" > /dev/null
fi

go run ./cmd/bench -diff \
  -warn-ratio "${BENCHDIFF_WARN_RATIO:-1.5}" \
  -fail-ratio "${BENCHDIFF_FAIL_RATIO:-5}" \
  "$base" "$new"
