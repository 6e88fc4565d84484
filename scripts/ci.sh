#!/usr/bin/env bash
# Offline CI entry point — every check the GitHub workflow runs, runnable
# locally with no network access. Each workflow job runs one stage; with no
# stage named, all of them run in this order:
#
#   lint     the layering rules (scripts/check_layering.sh);
#   tier1    configure + build the default tree (build/), run the full
#            ctest suite, then the engine label on its own;
#   perf     run scripts/run_bench.sh --smoke and validate the
#            BENCH_kernel.json schema (including the coef_vs_aos crossing
#            A/B and its >=1.3x floor), then the `perf` ctest label, which
#            pins the machine-independent op counters
#            (dtfe.delaunay.walk_steps, .cells_created, .conflict_cells,
#            dtfe.kernel.tetra_crossings) of the smoke fixture against
#            bench/perf_reference.json — a perf change that alters the WORK
#            done must update the reference intentionally — and requires the
#            fixture's grids at --threads 1 to equal the default-budget run
#            bitwise;
#   tsan     rebuild under ThreadSanitizer (build-thread/) and run the
#            concurrency-sensitive suites with no suppressions — the
#            fault-injection, durable-execution and engine labels, plus the
#            concurrent-triangulation, per-thread predicate-counter and
#            shared-trace-recorder tests, the kernel suites (render teams,
#            row builds, renders inside item tasks) and the nbody suite
#            (FOF's concurrent union-find);
#   ubsan    rebuild under UBSan (build-ubsan/) and run the geometry, kernel
#            fast-path, triangulation, nbody (FOF cell-key packing) and
#            engine suites;
#   asan     build the kernel, triangulation and predicate suites under
#            AddressSanitizer (build-asan/) and run them: the tiled render
#            loops write ragged edge tiles through Grid2D::at, and the
#            insertion indexes its scratch by cell, vertex and ring number.
#
# Every build here treats a compiler warning as an error
# (CMAKE_COMPILE_WARNING_AS_ERROR); a plain `cmake -B build -S .` does not.
#
# usage: ci.sh [--jobs N] [stage...]
#        stages: lint tier1 perf tsan ubsan asan
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="$(nproc)"
WERROR=-DCMAKE_COMPILE_WARNING_AS_ERROR=ON
ALL_STAGES=(lint tier1 perf tsan ubsan asan)
STAGES=()
while [ $# -gt 0 ]; do
  case "$1" in
    --jobs) JOBS="$2"; shift 2 ;;
    lint|tier1|perf|tsan|ubsan|asan) STAGES+=("$1"); shift ;;
    *) echo "unknown argument: $1 (stages: ${ALL_STAGES[*]})" >&2; exit 2 ;;
  esac
done
[ ${#STAGES[@]} -gt 0 ] || STAGES=("${ALL_STAGES[@]}")

# Configure build/ (idempotent) and build the given targets, or everything.
build_default() {
  cmake -B build -S . "$WERROR" >/dev/null
  if [ $# -gt 0 ]; then
    cmake --build build -j"$JOBS" --target "$@"
  else
    cmake --build build -j"$JOBS"
  fi
}

# Configure build-<dir>/ with DTFE_SANITIZE=<kind>; build the given targets,
# or everything.
build_sanitized() {
  local dir="$1" kind="$2"
  shift 2
  cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DDTFE_SANITIZE="$kind" "$WERROR" >/dev/null
  if [ $# -gt 0 ]; then
    cmake --build "$dir" -j"$JOBS" --target "$@"
  else
    cmake --build "$dir" -j"$JOBS"
  fi
}

stage_lint() {
  echo "== lint: layering rules"
  bash scripts/check_layering.sh
}

stage_tier1() {
  echo "== tier-1: configure + build (build/, $JOBS jobs)"
  build_default
  echo "== tier-1: full ctest suite"
  ctest --test-dir build --output-on-failure -j"$JOBS"
  echo "== engine: kernel/stage/batch contract suite"
  ctest --test-dir build --output-on-failure -L engine
}

stage_perf() {
  echo "== perf-smoke: benchmark trajectory + pinned op counters"
  cmake -B build -S . "$WERROR" >/dev/null
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
  build_default op_counters_test
  ctest --test-dir build --output-on-failure -L perf
}

stage_tsan() {
  echo "== tsan: configure + build (build-thread/, DTFE_SANITIZE=thread)"
  build_sanitized build-thread thread
  # Fail on any report, with no suppressions: every OpenMP team comes from
  # src/util/parallel.h, which declares the edges TSan cannot see in the
  # uninstrumented libgomp and, in TSan builds, ends each region's team so
  # the next region's threads are a fresh fork. second_deadlock_stack aids
  # triage.
  local tsan_opts="halt_on_error=1 second_deadlock_stack=1"

  echo "== tsan: fault + durable + engine labels"
  # The engine label carries the thread-budget determinism test (two rank
  # threads, each with its own OpenMP kernel team), the concurrent-engines
  # test (three engines running batches at once) and the shared-cube test
  # (two threads marching one FieldCube's tables and querying one
  # Reconstructor, including density_at's point location).
  TSAN_OPTIONS="$tsan_opts" \
      ctest --test-dir build-thread --output-on-failure -L 'fault|durable|engine'

  echo "== tsan: concurrent triangulations, predicate counters, shared trace, kernels, FOF"
  # Triangulation.ConcurrentBuildsMatchSerial builds one mesh on four threads
  # at once (a finished Triangulation holds no walk or scratch state, and the
  # predicate counters are thread_local); predicates_test checks that another
  # thread's calls never reach the caller's counters; obs_test has four rank
  # threads emitting spans and metrics into the shared recorder and registry.
  # kernels_test, density_test and fastpath_test drive the render teams, the
  # parallel row builds and renders nested inside parallel_tasks items;
  # nbody_test runs FOF's compare-and-swap union-find on teams of 2 and 4.
  # ctest registers per-CASE names, not binary names, so these run directly.
  local t
  for t in triangulation_test predicates_test obs_test kernels_test \
           density_test fastpath_test nbody_test; do
    TSAN_OPTIONS="$tsan_opts" "build-thread/tests/$t"
  done
}

stage_ubsan() {
  echo "== ubsan: configure + build (build-ubsan/, DTFE_SANITIZE=undefined)"
  build_sanitized build-ubsan undefined
  echo "== ubsan: geometry/kernel/triangulation/nbody/engine suites"
  # UBSan is built with -fno-sanitize-recover=all, so any undefined operation
  # (signed overflow in the walk counters, bad enum cast in the codec, a shift
  # out of range in the FOF 64-bit cell keys) aborts the test. fastpath_test
  # drives the coefficient-table march against its AoS oracles and the
  # Reconstructor view against the pipeline's march kernel; nbody_test
  # drives FOF over one and two cells per axis, ~1600 cells per axis, and
  # non-finite positions. triangulation_test and predicates_test drive the
  # insertion's scratch indexing and the two-lane insphere over degenerate
  # (exact-fallback, perturbed) and whole-mesh cavities. The engine label
  # covers engine_test.
  local t
  for t in fastpath_test ray_tetra_test kernels_test predicates_test \
           triangulation_test nbody_test; do
    "build-ubsan/tests/$t"
  done
  ctest --test-dir build-ubsan --output-on-failure -L engine
}

stage_asan() {
  # The march, walk and tess renders visit pixels in 8x8 tiles that are
  # ragged at the grid edges (kernels_test renders 1-, 7-, 9- and 37-pixel
  # grids); fastpath_test, vector_field_test and density_test drive the
  # per-cell tables and interpolant rows, which are built in parallel;
  # triangulation_test drives the insertion's mark, ring and edge-table
  # scratch up to a whole-mesh cavity. Any out-of-bounds access aborts the
  # binary.
  local suites=(kernels_test fastpath_test vector_field_test density_test
                triangulation_test predicates_test)
  echo "== asan: configure + build (build-asan/, DTFE_SANITIZE=address)"
  build_sanitized build-asan address "${suites[@]}"
  echo "== asan: kernel, triangulation and predicate suites"
  local t
  for t in "${suites[@]}"; do
    "build-asan/tests/$t"
  done
}

for stage in "${STAGES[@]}"; do
  "stage_${stage//-/_}"
done
echo "== ci: ${STAGES[*]} green"
