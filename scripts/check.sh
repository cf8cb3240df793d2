#!/usr/bin/env bash
# Full local check: build + test in the default (RelWithDebInfo) config and
# under ASan+UBSan.
#
# Usage: scripts/check.sh [--tsan] [--perf-smoke] [--kill-matrix [dir]]
#                         [--query-smoke [dir]] [--breaker-smoke [dir]]
#                         [--bench-build] [--scale] [extra ctest args...]
#   --tsan         run only the ThreadSanitizer configuration (the concurrency
#                  surface: engine, equivalence, faults, determinism, the
#                  sharded trace drain, the certificate and repair, and the
#                  query tier's snapshot-swap soak) instead of the full
#                  matrix.
#   --perf-smoke   run only the engine perf-regression gate
#                  (bench_engine_perf --assert-speedup); self-skips on hosts
#                  with < 4 hardware threads.
#   --kill-matrix  run only the crash-point sweep against an existing build
#                  directory (default build-asan) — no rebuild.
#   --query-smoke  run only the query-tier gate: bench_query's lookup-rate
#                  floor plus a serve soak (snapshot swaps under churn with
#                  reader threads validating against the oracle).
#   --breaker-smoke  run only the repair circuit breaker gate: a strangled
#                  dapsp_service open/half-open/close round trip at 1 and 4
#                  engine threads (cmp-identical checkpoint and trace) and
#                  its trace validated against its counters.
#   --bench-build  run only the benchmark build: configure perfbench/ out of
#                  tree into .bench_build/perfbench, build dapsp_perfbench
#                  and perfbench_tests, and run the benchmark's ctest.
#   --scale        run only the churn differential at universe 1024 and 2048
#                  (every cell and next hop against seq::apsp; ~10 s on a
#                  4-vCPU host, ~200 MB).
# The default run also regenerates BENCH_faults.json, whose every figure is
# deterministic, and compares it byte for byte with the committed file.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 4)"

# run_config <dir> <build type> <DAPSP_WERROR ON|OFF> [ctest args...]
run_config() {
  local dir="$1" type="$2" werror="$3"
  shift 3
  echo "== ${type} (${dir}) =="
  cmake -B "${dir}" -S . -DCMAKE_BUILD_TYPE="${type}" \
    -DDAPSP_WERROR="${werror}" >/dev/null
  cmake --build "${dir}" -j "${JOBS}"
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" "$@"
}

if [[ "${1:-}" == "--tsan" ]]; then
  shift
  # The tests that exercise the worker pool and the sharded phases —
  # test_engine_equivalence in particular runs the flat engine's arenas and
  # inbox frames differentially at 1/2/8 threads, test_trace runs the
  # sharded collection and drain of the TraceLog, the engine's one event
  # channel, at 1/2/8 threads, and test_certify / test_repair run the
  # certificate, whose per-shard wake-up timers sleep across rounds, and
  # test_query soaks the snapshot store and churns reader-slot registration
  # at 8 threads over a saturated store.
  run_config build-tsan Tsan OFF \
    -R 'test_engine|test_engine_equivalence|test_arena|test_faults|test_determinism|test_query|test_trace|test_certify|test_repair' "$@"
  echo "TSan checks passed."
  exit 0
fi

# Perf-regression gate (DESIGN.md section 16): the flat engine must keep its
# multi-thread speedups on hosts that can demonstrate them. The gate is
# inside the bench binary; on small hosts it prints SKIPPED and exits 0.
perf_smoke() {
  local dir="$1"
  echo "== perf smoke (${dir}) =="
  cmake -B "${dir}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build "${dir}" -j "${JOBS}" --target bench_engine_perf
  "${dir}/bench/bench_engine_perf" --assert-speedup
}

if [[ "${1:-}" == "--perf-smoke" ]]; then
  perf_smoke build
  exit 0
fi

# Observability smoke (DESIGN.md section 12): run the CLI with --trace-out /
# --metrics-out on a small graph and validate the Chrome-trace JSON parses
# with non-decreasing round timestamps.
trace_smoke() {
  local dir="$1" tmp
  echo "== trace smoke (${dir}) =="
  tmp="$(mktemp -d)"
  trap 'rm -rf "${tmp}"' RETURN
  "${dir}/examples/dapsp_cli" gen grid 8 8 > "${tmp}/g.txt"
  "${dir}/examples/dapsp_cli" apsp -g "${tmp}/g.txt" \
    --trace-out "${tmp}/trace.json" --metrics-out "${tmp}/metrics.json"
  if command -v python3 >/dev/null 2>&1; then
    python3 scripts/validate_trace.py "${tmp}/trace.json" "${tmp}/metrics.json"
  else
    echo "python3 not found; skipping trace JSON validation"
  fi
}

# Chaos smoke (DESIGN.md section 13): a seeded crash + corruption + loss
# campaign driven through the CLI's --repair path. Exit code 0 means the
# degraded run was repaired and every row re-certified (all_certified);
# 2/3 mean uncertified / bound-exceeded and fail the check.
chaos_smoke() {
  local dir="$1" tmp
  echo "== chaos smoke (${dir}) =="
  tmp="$(mktemp -d)"
  trap 'rm -rf "${tmp}"' RETURN
  "${dir}/examples/dapsp_cli" gen grid 5 6 > "${tmp}/g.txt"
  "${dir}/examples/dapsp_cli" apsp -g "${tmp}/g.txt" \
    --drop 0.1 --corrupt 0.25 --crash 12@60 --fault-seed 7 --repair
}

# Churn-soak smoke (DESIGN.md section 14): 500 updates of seeded graph churn
# with interleaved crash-stops and bit-rot through the long-running service.
# Exit code 0 means the run ended with every row certified against the final
# graph; the trace validator then cross-checks the service's kDelta/kEpoch
# events against its metrics counters.
churn_smoke() {
  local dir="$1" tmp
  echo "== churn soak smoke (${dir}) =="
  tmp="$(mktemp -d)"
  trap 'rm -rf "${tmp}"' RETURN
  "${dir}/examples/dapsp_service" --updates 500 --universe 24 --seed 7 \
    --chaos 0.05 --scrub-every 50 --checkpoint-every 100 \
    --durable-dir "${tmp}/svc" \
    --trace-out "${tmp}/service_trace.json" \
    --metrics-out "${tmp}/service_metrics.json" --quiet
  if command -v python3 >/dev/null 2>&1; then
    python3 scripts/validate_trace.py \
      "${tmp}/service_trace.json" "${tmp}/service_metrics.json"
  else
    echo "python3 not found; skipping service trace validation"
  fi
}

# Kill-matrix smoke (DESIGN.md section 15): sweep process kills across the
# whole durable byte stream (journal appends AND checkpoint rotations), then
# recover each one. Every swept offset must exit 42 (killed), recover with
# exit 0, and produce a final checkpoint bit-identical to the uninterrupted
# reference run — no acknowledged update lost, no divergence.
kill_matrix_smoke() {
  local dir="$1" tmp
  echo "== kill matrix smoke (${dir}) =="
  if ! command -v python3 >/dev/null 2>&1; then
    echo "python3 not found; skipping kill matrix smoke"
    return 0
  fi
  tmp="$(mktemp -d)"
  trap 'rm -rf "${tmp}"' RETURN
  local svc="${dir}/examples/dapsp_service"
  local flags=(--updates 24 --universe 12 --seed 7 --chaos 0.05
               --checkpoint-every 6 --quiet)
  # Reference: durable mode end-to-end, no kills. durable_bytes in the
  # metrics is the total durable stream length — the sweep range.
  "${svc}" --durable-dir "${tmp}/ref" "${flags[@]}" \
    --ckpt-dump "${tmp}/ref.bin" \
    --trace-out "${tmp}/ref_trace.json" \
    --metrics-out "${tmp}/ref_metrics.json"
  python3 scripts/validate_trace.py \
    "${tmp}/ref_trace.json" "${tmp}/ref_metrics.json"
  local bytes
  bytes="$(python3 -c "import json; print(json.load(open(
      '${tmp}/ref_metrics.json'))['counters']['durable_bytes'])")"
  local points=16 step=$(( bytes / 17 )) k at rc
  for (( k = 1; k <= points; k++ )); do
    at=$(( k * step ))
    rm -rf "${tmp}/run"
    rc=0
    "${svc}" --durable-dir "${tmp}/run" "${flags[@]}" \
      --kill-at-byte "${at}" || rc=$?
    if [[ "${rc}" -ne 42 ]]; then
      echo "kill matrix: offset ${at}: expected exit 42 (killed), got ${rc}"
      exit 1
    fi
    "${svc}" --durable-dir "${tmp}/run" --recover "${flags[@]}" \
      --ckpt-dump "${tmp}/rec.bin" \
      --trace-out "${tmp}/rec_trace.json" \
      --metrics-out "${tmp}/rec_metrics.json"
    python3 scripts/validate_trace.py \
      "${tmp}/rec_trace.json" "${tmp}/rec_metrics.json" >/dev/null
    if ! cmp -s "${tmp}/ref.bin" "${tmp}/rec.bin"; then
      echo "kill matrix: offset ${at}: recovered checkpoint differs"
      exit 1
    fi
  done
  echo "kill matrix: ${points} crash points swept," \
       "all recovered bit-identically"
}

if [[ "${1:-}" == "--kill-matrix" ]]; then
  kill_matrix_smoke "${2:-build-asan}"
  exit 0
fi

# Query-tier smoke (DESIGN.md section 17): the serial lookup-rate floor on
# bench_query, then a serve soak — dapsp_service publishing DQRY snapshots
# under churn while reader threads validate every fresh-status answer
# against a per-epoch sequential oracle. Exit 1 on any overclaim. Finally a
# query_server export/serve round trip through the mmap path.
query_smoke() {
  local dir="$1" tmp
  echo "== query smoke (${dir}) =="
  cmake -B "${dir}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build "${dir}" -j "${JOBS}" \
    --target bench_query dapsp_service query_server
  tmp="$(mktemp -d)"
  trap 'rm -rf "${tmp}"' RETURN
  # Run in ${tmp}: the smoke run's BENCH_query.json must not clobber the
  # committed full-size rows.
  ( cd "${tmp}" && "${OLDPWD}/${dir}/bench/bench_query" \
      --smoke --assert-rate 1000000 >/dev/null )
  "${dir}/examples/dapsp_service" --universe 24 --updates 60 --seed 7 \
    --serve 2 --serve-lookups 128 --chaos 0.05 --quiet
  "${dir}/examples/query_server" --export "${tmp}/s.dqry" \
    --universe 32 --seed 7 --labels 2
  "${dir}/examples/query_server" --snapshot "${tmp}/s.dqry" --info
  "${dir}/examples/query_server" --snapshot "${tmp}/s.dqry" --query 1 30
  # The mmap path verifies too: one flipped bit in the distance table (blob
  # offset 48 on) must refuse the file as checksum damage.
  python3 - "${tmp}/s.dqry" "${tmp}/bad.dqry" <<'EOF'
import sys
b = bytearray(open(sys.argv[1], "rb").read())
b[48 + 4 * 33] ^= 0x01
open(sys.argv[2], "wb").write(b)
EOF
  if "${dir}/examples/query_server" --snapshot "${tmp}/bad.dqry" --info \
      2>"${tmp}/bad.err"; then
    echo "FAIL: query_server served a damaged snapshot" >&2
    return 1
  fi
  if ! grep -q "checksum-mismatch" "${tmp}/bad.err"; then
    echo "FAIL: damaged snapshot not named checksum-mismatch:" >&2
    cat "${tmp}/bad.err" >&2
    return 1
  fi
}

if [[ "${1:-}" == "--query-smoke" ]]; then
  query_smoke "${2:-build}"
  exit 0
fi

# Breaker smoke (DESIGN.md section 18): a dapsp_service run whose repair
# breaker provably opens during a strangle window, suppresses repairs, and
# closes again — exit 0 requires the final tables fully certified despite
# the outage, and the run must end in the same checkpoint and trace bytes at
# 1 and 4 engine threads; its trace is then cross-checked against its
# counters.
breaker_smoke() {
  local dir="$1" tmp
  echo "== breaker smoke (${dir}) =="
  cmake -B "${dir}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build "${dir}" -j "${JOBS}" --target dapsp_service
  tmp="$(mktemp -d)"
  trap 'rm -rf "${tmp}"' RETURN
  local t f
  for t in 1 4; do
    "${dir}/examples/dapsp_service" --universe 20 --updates 30 --seed 7 \
      --breaker 2@3 --strangle 5:9 --quiet --threads "${t}" \
      --ckpt-dump "${tmp}/svc_t${t}.ckpt" \
      --trace-out "${tmp}/svc_t${t}.jsonl" > "${tmp}/svc_t${t}.out"
    if ! grep -q 'breaker: state=closed' "${tmp}/svc_t${t}.out"; then
      echo "breaker smoke: breaker did not close after the strangle window"
      cat "${tmp}/svc_t${t}.out"
      exit 1
    fi
  done
  for f in ckpt jsonl; do
    if ! cmp "${tmp}/svc_t1.${f}" "${tmp}/svc_t4.${f}"; then
      echo "breaker smoke: strangled run's .${f} differs at 1 vs 4 threads"
      exit 1
    fi
  done
  "${dir}/examples/dapsp_service" --universe 20 --updates 30 --seed 7 \
    --breaker 2@3 --strangle 5:9 --quiet \
    --trace-out "${tmp}/svc_trace.json" \
    --metrics-out "${tmp}/svc_metrics.json" > /dev/null
  if command -v python3 >/dev/null 2>&1; then
    python3 scripts/validate_trace.py \
      "${tmp}/svc_trace.json" "${tmp}/svc_metrics.json"
  fi
  echo "breaker smoke passed"
}

if [[ "${1:-}" == "--breaker-smoke" ]]; then
  breaker_smoke "${2:-build}"
  exit 0
fi

# Deterministic bench file (ROADMAP item 5): every figure bench_faults writes
# (rounds, round ratios, row counts, verdicts) comes from seeded runs, so a
# fresh run in a temp directory must reproduce the committed
# BENCH_faults.json byte for byte.
faults_bench_check() {
  local dir="$1" tmp
  echo "== BENCH_faults.json check (${dir}) =="
  tmp="$(mktemp -d)"
  trap 'rm -rf "${tmp}"' RETURN
  ( cd "${tmp}" && "${OLDPWD}/${dir}/bench/bench_faults" >/dev/null )
  if ! cmp "${tmp}/BENCH_faults.json" BENCH_faults.json; then
    echo "BENCH_faults.json differs from a fresh bench_faults run"
    exit 1
  fi
}

# Benchmark build (BENCHMARK.json, perfbench/): the benchmark compiles the
# library sources as a package of its own, so nothing else in this script
# would notice a library API change that breaks it. Build it the way
# perfbench/run.py does (Release, out of tree) and run its own tests.
bench_build() {
  local dir=".bench_build/perfbench"
  echo "== benchmark build (${dir}) =="
  cmake -S perfbench -B "${dir}" -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build "${dir}" -j "${JOBS}" --target dapsp_perfbench perfbench_tests
  ctest --test-dir "${dir}" --output-on-failure
}

if [[ "${1:-}" == "--bench-build" ]]; then
  bench_build
  exit 0
fi

# Churn differential at realistic n (DESIGN.md section 14): the disabled-by-
# default CellRepair.DISABLED_DifferentialAtScale test of test_service.
if [[ "${1:-}" == "--scale" ]]; then
  echo "== scale differential (build) =="
  cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build build -j "${JOBS}" --target test_service
  build/tests/test_service --gtest_also_run_disabled_tests \
    --gtest_filter='CellRepair.DISABLED_DifferentialAtScale'
  exit 0
fi

# The two main configurations build warning-free: -Werror keeps them so.
run_config build RelWithDebInfo ON "$@"
trace_smoke build
chaos_smoke build
churn_smoke build
perf_smoke build
query_smoke build
breaker_smoke build
faults_bench_check build
run_config build-asan Asan ON "$@"
kill_matrix_smoke build-asan

echo "All checks passed. (Run scripts/check.sh --tsan for the TSan config.)"
