#!/usr/bin/env bash
# Paper-figure smoke: bench_paper_sweep must exit 0, print every figure
# section, and write a BENCH_paper_sweep.json that bench_diff validates.
#
# Usage: tools/run_paper_sweep_smoke.sh <bench_paper_sweep> <bench_diff> <scale>
set -euo pipefail

DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT
GVEX_BENCH_DIR="$DIR" "$1" "$3" > "$DIR/sweep.out"
for section in "Fig. 5 " "Fig. 6 " "Fig. 8(a) " "Fig. 8(b) " "Fig. 8(c,d) " \
               "Fig. 9(a,b) " "Fig. 9(c) " "Fig. 9(c') "; do
  grep -qF "$section" "$DIR/sweep.out" \
    || { echo "no $section section" >&2; exit 1; }
done
"$2" --validate "$DIR/BENCH_paper_sweep.json"
