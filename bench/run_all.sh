#!/usr/bin/env bash
# Run every figure/table benchmark binary and emit one BENCH_<name>.json
# per binary (google-benchmark JSON schema, see docs/benchmarks.md).
#
# Usage: bench/run_all.sh [BUILD_DIR] [OUT_DIR]
#   BUILD_DIR  cmake build tree containing bench/ binaries (default: build)
#   OUT_DIR    where BENCH_*.json land (default: bench-results)
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${1:-${REPO_ROOT}/build}"
OUT_DIR="${2:-${REPO_ROOT}/bench-results}"

if [[ ! -d "${BUILD_DIR}/bench" ]]; then
  echo "error: ${BUILD_DIR}/bench not found — build first:" >&2
  echo "  cmake -B build -S . && cmake --build build -j" >&2
  exit 1
fi

mkdir -p "${OUT_DIR}"

BENCHES=(
  bench_simcore
  bench_table3_capops
  bench_table4_capability_ops
  bench_fig4_chain_revocation
  bench_fig5_tree_revocation
  bench_fig6_parallel_efficiency
  bench_fig7_service_dependence
  bench_fig8_kernel_dependence
  bench_fig9_system_efficiency
  bench_fig10_nginx
  bench_migration
  bench_failover
  bench_ablation
  bench_traffic
)

failed=0
for b in "${BENCHES[@]}"; do
  bin="${BUILD_DIR}/bench/${b}"
  out="${OUT_DIR}/BENCH_${b#bench_}.json"
  if [[ ! -x "${bin}" ]]; then
    echo "skip: ${bin} not built" >&2
    failed=1
    continue
  fi
  echo "== ${b} -> ${out}"
  "${bin}" --benchmark_out="${out}" --benchmark_out_format=json \
    --benchmark_repetitions="${BENCH_REPETITIONS:-1}" || {
    echo "fail: ${b} exited nonzero" >&2
    failed=1
  }
done

echo
echo "Results in ${OUT_DIR}:"
ls -l "${OUT_DIR}"/BENCH_*.json
exit "${failed}"
