#!/usr/bin/env bash
# Runs the instrumented harnesses at a small, CI-friendly scale, writes
# one BENCH_<name>.json per harness (shared schema, see
# bench/common/json_reporter.h), and consolidates them into a single
# BENCH_<n>.json snapshot ({"<bench name>": <per-bench object>, ...}) so
# the perf trajectory across PRs is tracked in-repo. Usage:
#
#   bench/run_bench_suite.sh [BUILD_DIR] [OUT_DIR] [SNAPSHOT_N]
#
# BUILD_DIR defaults to ./build, OUT_DIR to the current directory.
# SNAPSHOT_N (or the BENCH_SNAPSHOT env var) numbers the consolidated
# file; when unset, no consolidated snapshot is written.
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-.}"
SNAPSHOT_N="${3:-${BENCH_SNAPSHOT:-}}"
BENCH_DIR="${BUILD_DIR}/bench"

BENCHES=(query_throughput fig9_aggregate_queries build_scaling
  micro_reconstruction io_scan server_load)

for bin in "${BENCHES[@]}"; do
  if [[ ! -x "${BENCH_DIR}/${bin}" ]]; then
    echo "missing ${BENCH_DIR}/${bin} — build the bench targets first:" >&2
    echo "  cmake --build ${BUILD_DIR} --target ${bin}" >&2
    exit 1
  fi
done

mkdir -p "${OUT_DIR}"

echo "== query_throughput =="
# Its aggregate section reports agg_scan_* (row scan) beside
# agg_compressed_* (the compressed domain, row mass from block sums) for
# the in-memory model, and agg_disk_scan_* beside agg_disk_compressed_*
# (qps, speedup, max rel diff) for the disk layout, whose block sums are
# built at Open and whose ragged end rows are read from the U file.
"${BENCH_DIR}/query_throughput" --rows=2000 --cells=200 --aggregates=10 \
  --json="${OUT_DIR}/BENCH_query_throughput.json"

echo
echo "== fig9_aggregate_queries =="
"${BENCH_DIR}/fig9_aggregate_queries" --space=2,5,10 --phone_rows=1000 \
  --queries=25 --json="${OUT_DIR}/BENCH_fig9_aggregate_queries.json"

echo
echo "== build_scaling =="
# The randomized-vs-exact engine section runs at its own, much larger
# scale (200k x 366 is where the sketch's O(N*M*l) pass-1 pulls ahead of
# the exact O(N*M^2) accumulation; rand_build_speedup is gated >= 2x
# there).
"${BENCH_DIR}/build_scaling" --rows=4000 --cols=128 --threads=1,2 \
  --rand_rows=200000 --rand_cols=366 \
  --json="${OUT_DIR}/BENCH_build_scaling.json"

echo
echo "== micro_reconstruction =="
"${BENCH_DIR}/micro_reconstruction" \
  --benchmark_filter='BM_(DeltaIndexProbe|CellReconstructionVsK|RowReconstruction|PlanPointQuery|MaxPanel/100000/0|RowMaxQuery)' \
  --benchmark_min_time=0.05 \
  --json="${OUT_DIR}/BENCH_micro_reconstruction.json"

echo
echo "== io_scan =="
"${BENCH_DIR}/io_scan" --rows=4000 --cols=366 \
  --json="${OUT_DIR}/BENCH_io_scan.json"

echo
echo "== server_load =="
"${BENCH_DIR}/server_load" --rows=2000 --cols=128 --clients=64,256 \
  --requests=10 --json="${OUT_DIR}/BENCH_server_load.json"

echo
echo "wrote:"
ls -l "${OUT_DIR}"/BENCH_*.json

# Consolidated snapshot: every per-bench file is one complete JSON
# object, so the merge is plain concatenation under the bench's name —
# no jq/python dependency.
if [[ -n "${SNAPSHOT_N}" ]]; then
  SNAPSHOT="${OUT_DIR}/BENCH_${SNAPSHOT_N}.json"
  {
    printf '{\n'
    first=1
    for bin in "${BENCHES[@]}"; do
      [[ ${first} -eq 0 ]] && printf ',\n'
      first=0
      printf '"%s": ' "${bin}"
      cat "${OUT_DIR}/BENCH_${bin}.json"
    done
    printf '\n}\n'
  } > "${SNAPSHOT}"
  echo
  echo "consolidated snapshot: ${SNAPSHOT}"
fi
