#!/usr/bin/env bash
# Build Release, run every bench binary with its small preset, collect the
# BENCH_<name>.json PerfReports into bench/results/, and gate key timings
# against the checked-in baselines in bench/baselines/ with tools/bench_diff
# (default tolerance +/-30%; rows under the 250 ms floor are skipped, so
# the gate reads the substantial rows — per-report totals above all — and
# ignores scheduler noise on budget-bounded sub-second rows).
#
# Usage: tools/run_benchmarks.sh [--update-baselines|--refresh-baselines]
#                                [--tolerance <frac>]
#
#   --update-baselines  copy this run's reports over bench/baselines/
#                       (do this on the reference machine after a deliberate
#                       performance change, then commit the new baselines)
#   --refresh-baselines alias of --update-baselines, for the workflow in
#                       docs/PERFORMANCE.md
#   --tolerance <frac>  relative drift allowed before the gate fails
#                       (default 0.30)
#
# Small presets keep the full sweep to a couple of minutes on one core;
# see docs/BENCHMARKS.md for the paper-scale commands.
set -euo pipefail

cd "$(dirname "$0")/.."

TOLERANCE=0.30
UPDATE_BASELINES=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --update-baselines|--refresh-baselines) UPDATE_BASELINES=1; shift ;;
    --tolerance) TOLERANCE="$2"; shift 2 ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

cmake --preset default
cmake --build --preset default -j "$(nproc)"

RESULTS=bench/results
BASELINES=bench/baselines
rm -rf "$RESULTS"
mkdir -p "$RESULTS"
export GVEX_BENCH_DIR="$RESULTS"

# bench name -> small-preset arguments. Every scaled bench runs at
# scale 0.15 (enough graphs to exercise each code path); table3 only
# computes dataset statistics so it keeps a larger scale, and
# micro_kernels takes google-benchmark flags instead of a scale.
run_bench() {
  local name="$1"; shift
  local bin="./build/bench/bench_${name}"
  if [[ ! -x "$bin" ]]; then
    echo "bench binary missing: $bin (build failed or bench not compiled)" >&2
    exit 1
  fi
  echo "== bench_${name} $*"
  "$bin" "$@" > "$RESULTS/bench_${name}.out"
  if [[ ! -f "$RESULTS/BENCH_${name}.json" ]]; then
    echo "bench_${name} did not write $RESULTS/BENCH_${name}.json" >&2
    exit 1
  fi
  # A truncated/malformed report must fail the run, not silently pass the
  # baseline diff (which skips unparseable files with exit 2 anyway).
  if ! ./build/tools/bench_diff --validate "$RESULTS/BENCH_${name}.json"; then
    echo "bench_${name} wrote an invalid report" >&2
    exit 1
  fi
}

run_bench table1_capabilities
run_bench table3_datasets 0.5
run_bench paper_sweep 0.15
run_bench fig7_param_sensitivity 0.15
run_bench fig9_scalability 0.15
run_bench fig12_node_order 0.15
run_bench ablation 0.15
run_bench case_drug 0.15
run_bench case_enzymes 0.15
run_bench case_social 0.15
run_bench micro_kernels --benchmark_min_time=0.05
run_bench serve --scale 0.15 --seed 42 --ops 40 --delay-ms 10
run_bench cluster --scale 0.15 --seed 42 --ops 40
run_bench ingest --scale 0.15 --seed 42 --ops 40
run_bench zoo --scale 0.15 --seed 42 --ops 2

echo
echo "reports collected in $RESULTS/:"
ls "$RESULTS"/BENCH_*.json

if [[ "$UPDATE_BASELINES" -eq 1 ]]; then
  mkdir -p "$BASELINES"
  cp "$RESULTS"/BENCH_*.json "$BASELINES"/
  echo "baselines updated in $BASELINES/ — review and commit them"
  exit 0
fi

echo
echo "== diffing against $BASELINES/ (tolerance +/-$(awk "BEGIN{print 100*$TOLERANCE}")%)"
FAILED=0
for report in "$RESULTS"/BENCH_*.json; do
  base="$BASELINES/$(basename "$report")"
  if [[ ! -f "$base" ]]; then
    echo "-- $(basename "$report"): no baseline (run with --update-baselines to create)"
    continue
  fi
  echo "-- $(basename "$report")"
  if ! ./build/tools/bench_diff "$base" "$report" "$TOLERANCE"; then
    FAILED=1
  fi
done

# Memory-regression gate: micro_kernels publishes the compact-data-plane
# footprint params (bytes_per_view_*, model_bytes_*, peak_rss_kb);
# bench_diff --mem fails only when a memory metric GREW past tolerance —
# shrinkage is an improvement, and the timing floor above would
# misclassify byte counts as sub-floor rows.
MEM_REPORT="$RESULTS/BENCH_micro_kernels.json"
MEM_BASE="$BASELINES/BENCH_micro_kernels.json"
if [[ -f "$MEM_BASE" ]]; then
  echo
  echo "== memory gate (micro_kernels params, tolerance +$(awk "BEGIN{print 100*$TOLERANCE}")%)"
  if ! ./build/tools/bench_diff --mem "$MEM_BASE" "$MEM_REPORT" "$TOLERANCE"; then
    FAILED=1
  fi
fi

if [[ "$FAILED" -ne 0 ]]; then
  echo "benchmark regression gate FAILED (drift beyond +/-$(awk "BEGIN{print 100*$TOLERANCE}")%)" >&2
  exit 1
fi
echo "benchmark regression gate passed"
