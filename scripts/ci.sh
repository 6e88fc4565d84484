#!/usr/bin/env bash
# Offline CI entry point — everything the GitHub workflow runs, runnable
# locally with no network access:
#
#   1. configure + build the default tree and run the full tier-1 ctest suite;
#   2. perf-smoke: run scripts/run_bench.sh --smoke and validate the
#      BENCH_kernel.json schema (including the coef_vs_aos crossing A/B
#      and its >=1.3x floor), then the `perf` ctest label, which pins the
#      machine-independent op counters (dtfe.delaunay.walk_steps,
#      .cells_created, .conflict_cells, dtfe.kernel.tetra_crossings) of the
#      smoke fixture against
#      bench/perf_reference.json — a perf change that alters the WORK done
#      must update the reference intentionally — and requires the fixture's
#      grids at --threads 1 to equal the default-budget run bitwise;
#   3. rebuild under ThreadSanitizer (DTFE_SANITIZE=thread) and run the
#      concurrency-sensitive suites — the fault-injection, durable-execution,
#      and engine labels, plus the concurrent-triangulation, per-thread
#      predicate-counter and shared-trace-recorder tests — against that
#      build;
#   4. rebuild under UBSan (DTFE_SANITIZE=undefined) and run the geometry,
#      kernel fast-path, nbody (FOF cell-key packing), and engine suites
#      against that build;
#   5. build the kernel suites under AddressSanitizer (DTFE_SANITIZE=address)
#      and run them: the tiled render loops write ragged edge tiles through
#      Grid2D::at.
#
# usage: ci.sh [--skip-tsan] [--skip-perf] [--jobs N]
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="$(nproc)"
SKIP_TSAN=0
SKIP_PERF=0
while [ $# -gt 0 ]; do
  case "$1" in
    --skip-tsan) SKIP_TSAN=1; shift ;;
    --skip-perf) SKIP_PERF=1; shift ;;
    --jobs) JOBS="$2"; shift 2 ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

echo "== lint: layering rules"
bash scripts/check_layering.sh

echo "== tier-1: configure + build (build/, $JOBS jobs)"
cmake -B build -S . >/dev/null
cmake --build build -j"$JOBS"

echo "== tier-1: full ctest suite"
ctest --test-dir build --output-on-failure -j"$JOBS"

echo "== engine: kernel/stage/batch contract suite"
ctest --test-dir build --output-on-failure -L engine

echo "== mp-smoke: socket transport (3 worker processes, one SIGKILLed)"
bash scripts/run_mp_smoke.sh build/apps/pdtfe 3

if [ "$SKIP_PERF" -eq 1 ]; then
  echo "== perf-smoke: skipped (--skip-perf)"
else
  echo "== perf-smoke: benchmark trajectory + pinned op counters"
  bash scripts/run_bench.sh --smoke --out build/BENCH_smoke.json
  python3 - <<'PY'
import json, sys

with open("build/BENCH_smoke.json") as f:
    doc = json.load(f)

# Schema gate: a bench-script change must not silently break consumers.
for key in ("schema", "mode", "host", "micro_delaunay", "micro_kernels",
            "coef_vs_aos"):
    assert key in doc, f"BENCH_kernel.json missing top-level key {key!r}"
assert doc["schema"] == "pdtfe-bench-v4", doc["schema"]
assert "simd_isa" in doc["host"], "host missing simd_isa"
for key in ("benchmark", "inserts_per_sec", "allocs_per_insert"):
    assert key in doc["micro_delaunay"], f"micro_delaunay missing {key!r}"
for key in ("crossings_per_sec_aos_scalar", "crossings_per_sec_coef",
            "speedup_coef_vs_aos"):
    assert key in doc["coef_vs_aos"], f"coef_vs_aos missing {key!r}"

# The SoA crossing test must beat the pre-table AoS path outright.
assert doc["coef_vs_aos"]["speedup_coef_vs_aos"] >= 1.3, \
    f"coefficient crossing speedup below 1.3x: {doc['coef_vs_aos']}"
print("perf-smoke: schema valid")
PY
  # Pinned work counts (same fixture, same walk, same crossings — exactly)
  # and grids that do not move with the thread budget.
  ctest --test-dir build --output-on-failure -L perf
fi

if [ "$SKIP_TSAN" -eq 1 ]; then
  echo "== sanitizers (tsan + ubsan + asan): skipped (--skip-tsan)"
  exit 0
fi

echo "== tsan: configure + build (build-thread/, DTFE_SANITIZE=thread)"
cmake -B build-thread -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DDTFE_SANITIZE=thread >/dev/null
cmake --build build-thread -j"$JOBS"

echo "== tsan: fault + durable + engine labels"
# TSAN_OPTIONS: fail the job on any report; second_deadlock_stack aids triage.
# The engine label carries the thread-budget determinism test (two rank
# threads, each with its own OpenMP kernel team), the concurrent-engines
# test (three engines running batches at once) and the shared-cube test
# (two threads marching one FieldCube's tables and querying one
# Reconstructor, including density_at's point location). libgomp's
# uninstrumented barriers need scripts/tsan.supp (see its header). Its rules
# match on the OpenMP worker's stack, so history_size=7 keeps enough access
# history for TSan to restore that stack; with the default history, reports
# from earlier parallel regions print "failed to restore the stack" and slip
# past the suppression (FieldKernel.* renders several kernels back to back).
TSAN_OPTS="halt_on_error=1 second_deadlock_stack=1 history_size=7 suppressions=$PWD/scripts/tsan.supp"
TSAN_OPTIONS="$TSAN_OPTS" \
    ctest --test-dir build-thread --output-on-failure -L 'fault|durable|engine'

echo "== tsan: concurrent triangulations, predicate counters, shared trace"
# Triangulation.ConcurrentBuildsMatchSerial builds one mesh on four threads
# at once (a finished Triangulation holds no walk or scratch state, and the
# predicate counters are thread_local); predicates_test checks that another
# thread's calls never reach the caller's counters; obs_test has four rank
# threads emitting spans and metrics into the shared recorder and registry.
# Run as binaries, like the UBSan loop below.
for t in triangulation_test predicates_test obs_test; do
  TSAN_OPTIONS="$TSAN_OPTS" "build-thread/tests/$t"
done

echo "== ubsan: configure + build (build-ubsan/, DTFE_SANITIZE=undefined)"
cmake -B build-ubsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DDTFE_SANITIZE=undefined >/dev/null
cmake --build build-ubsan -j"$JOBS"

echo "== ubsan: geometry/kernel/nbody/engine suites"
# UBSan is built with -fno-sanitize-recover=all, so any undefined operation
# (signed overflow in the walk counters, bad enum cast in the codec, a shift
# out of range in the FOF 64-bit cell keys) aborts the test. fastpath_test
# drives the coefficient-table march against its AoS oracles and the
# Reconstructor view against the pipeline's march kernel; nbody_test
# drives FOF over one and two cells per axis, ~1600 cells per axis, and
# non-finite positions.
# The targeted binaries run directly (ctest registers per-CASE names, not
# binary names); the engine label covers engine_test.
for t in fastpath_test ray_tetra_test kernels_test predicates_test \
         nbody_test; do
  "build-ubsan/tests/$t"
done
ctest --test-dir build-ubsan --output-on-failure -L engine

echo "== asan: configure + build (build-asan/, DTFE_SANITIZE=address)"
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DDTFE_SANITIZE=address >/dev/null
cmake --build build-asan -j"$JOBS" \
      --target kernels_test fastpath_test vector_field_test

echo "== asan: kernel suites"
# The march, walk and tess renders visit pixels in 8x8 tiles that are ragged
# at the grid edges (kernels_test renders 1-, 7-, 9- and 37-pixel grids);
# fastpath_test and vector_field_test drive the per-cell tables, which are
# built in parallel. Any out-of-bounds access aborts the binary.
for t in kernels_test fastpath_test vector_field_test; do
  "build-asan/tests/$t"
done

echo "== ci: all green"
