#!/usr/bin/env bash
# Runs the engine-facing benchmarks and writes their results as JSON:
#
#   BENCH_micro.json             Google Benchmark JSON (kernel microbenches)
#   BENCH_phase_breakdown.json   per-dataset phase runtimes, cached vs
#                                cache-bypassed, plus cache counters
#   BENCH_kernels.json           vectorized-kernel throughput per dispatch
#                                tier vs the pre-kernel scalar loops
#
# Usage: tools/run_bench.sh [output-dir]
# Env:   BUILD_DIR (default: build), CAUSUMX_BENCH_SCALE (default: 0.2)
set -euo pipefail

cd "$(dirname "$0")/.." || exit 1
BUILD_DIR="${BUILD_DIR:-build}"
OUT_DIR="${1:-.}"
mkdir -p "$OUT_DIR"

wrote=()
cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j --target bench_phase_breakdown
if cmake --build "$BUILD_DIR" -j --target bench_micro 2>/dev/null; then
  "$BUILD_DIR/bench_micro" \
    --benchmark_out="$OUT_DIR/BENCH_micro.json" \
    --benchmark_out_format=json
  wrote+=("$OUT_DIR/BENCH_micro.json")
else
  echo "bench_micro unavailable (Google Benchmark not found) — skipping"
fi

cmake --build "$BUILD_DIR" -j --target bench_kernels

"$BUILD_DIR/bench_phase_breakdown" --json "$OUT_DIR/BENCH_phase_breakdown.json"
wrote+=("$OUT_DIR/BENCH_phase_breakdown.json")
"$BUILD_DIR/bench_kernels" --json "$OUT_DIR/BENCH_kernels.json"
wrote+=("$OUT_DIR/BENCH_kernels.json")

echo "wrote ${wrote[*]}"
