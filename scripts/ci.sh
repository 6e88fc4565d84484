#!/usr/bin/env bash
# Offline CI entry point — everything the GitHub workflow runs, runnable
# locally with no network access:
#
#   1. configure + build the default tree and run the full tier-1 ctest suite;
#   2. perf-smoke: run scripts/run_bench.sh --smoke, validate the
#      BENCH_kernel.json schema (including the simd_vs_scalar crossing A/B
#      and its >=1.3x floor), pin the machine-independent op counters
#      (dtfe.delaunay.walk_steps, dtfe.kernel.tetra_crossings) against
#      bench/perf_reference.json — a perf change that alters the WORK done
#      must update the reference intentionally — and run the pipeline with
#      --use-simd on AND off, pinning identical tetra_crossings and grid
#      checksums across the two;
#   3. rebuild under ThreadSanitizer (DTFE_SANITIZE=thread) and run the
#      concurrency-sensitive suites — the fault-injection, durable-execution,
#      and overlapped-executor labels — against that build;
#   4. rebuild under UBSan (DTFE_SANITIZE=undefined) and run the geometry,
#      kernel-parity, nbody (FOF cell-key packing), and engine suites
#      against that build.
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
with open("bench/perf_reference.json") as f:
    ref = json.load(f)

# Schema gate: a bench-script change must not silently break consumers.
for key in ("schema", "mode", "host", "micro_delaunay", "micro_kernels",
            "simd_vs_scalar", "pipeline"):
    assert key in doc, f"BENCH_kernel.json missing top-level key {key!r}"
assert doc["schema"] == "pdtfe-bench-v1", doc["schema"]
assert "simd_isa" in doc["host"], "host missing simd_isa"
for key in ("inserts_per_sec_reuse", "inserts_per_sec_noreuse",
            "allocs_per_insert_reuse", "allocs_per_insert_noreuse"):
    assert key in doc["micro_delaunay"], f"micro_delaunay missing {key!r}"
for key in ("crossings_per_sec_aos_scalar", "crossings_per_sec_simd",
            "speedup_coef_vs_aos", "speedup_simd_vs_aos"):
    assert key in doc["simd_vs_scalar"], f"simd_vs_scalar missing {key!r}"
for key in ("serial_wall_s", "overlap_wall_s", "speedup",
            "overlap_expected_win", "checksums_equal",
            "op_counters", "crossings_per_sec_serial",
            "crossings_per_sec_overlap"):
    assert key in doc["pipeline"], f"pipeline missing {key!r}"
assert doc["pipeline"]["checksums_equal"] is True, \
    "overlapped pipeline checksum differs from serial"
# The e2e overlap speedup is only a meaningful assertion with real
# parallelism; on a single core the tag documents the expected ~1.0x.
if doc["pipeline"]["overlap_expected_win"]:
    assert doc["pipeline"]["speedup"] > 0.9, \
        f"overlap regressed serial on a multi-core host: {doc['pipeline']}"

# The SoA crossing test must beat the pre-table AoS path outright (the
# tentpole's acceptance floor).
assert doc["simd_vs_scalar"]["speedup_simd_vs_aos"] >= 1.3, \
    f"SIMD crossing speedup below 1.3x: {doc['simd_vs_scalar']}"

# Scratch reuse must actually reduce allocation churn.
md = doc["micro_delaunay"]
assert md["allocs_per_insert_reuse"] < md["allocs_per_insert_noreuse"], \
    f"scratch reuse did not reduce allocations: {md}"

# Pinned work counts: same fixture, same walk, same crossings — exactly.
got = doc["pipeline"]["op_counters"]
want = ref["op_counters"]
for name, expect in want.items():
    assert got.get(name) == expect, (
        f"{name}: got {got.get(name)}, reference {expect} — the amount of "
        "work changed; if intentional, regenerate bench/perf_reference.json")
print("perf-smoke: schema valid, op counters match the reference")
PY

  echo "== perf-smoke: SIMD on/off A/B (pinned crossings + checksum equality)"
  # The SoA/SIMD batch route must classify EXACTLY the same tetra crossings
  # and produce bitwise-identical grids as the scalar route — the tentpole's
  # determinism contract, asserted here end-to-end through the CLI.
  SIMD_TMP="$(mktemp -d)"
  trap 'rm -rf "$SIMD_TMP"' EXIT
  build/apps/pdtfe generate --out "$SIMD_TMP/snap.bin" \
      --n 40000 --box 16 --seed 3 >/dev/null
  for mode in on off; do
    build/apps/pdtfe pipeline --in "$SIMD_TMP/snap.bin" --ranks 2 --fields 6 \
        --grid 24 --length 3 --use-simd "$mode" \
        --report "$SIMD_TMP/$mode" \
        --metrics-out "$SIMD_TMP/${mode}_metrics.json" >/dev/null
  done
  python3 - "$SIMD_TMP" <<'PY'
import json, sys

tmp = sys.argv[1]
def load(name):
    with open(f"{tmp}/{name}") as f:
        return json.load(f)

on, off = load("on.json")["summary"], load("off.json")["summary"]
mon, moff = load("on_metrics.json"), load("off_metrics.json")

assert on["grid_checksum_total"] == off["grid_checksum_total"], (
    f"simd on/off grids differ: {on['grid_checksum_total']} vs "
    f"{off['grid_checksum_total']}")
key = "dtfe.kernel.tetra_crossings"
con, coff = mon["counters"][key], moff["counters"][key]
assert con == coff, f"tetra_crossings differ across simd on/off: {con} vs {coff}"
lanes = mon["counters"].get("dtfe.kernel.simd_batch_lanes", 0)
assert lanes > 0, "simd on run recorded no batched lanes — batch path inactive"
assert moff["counters"].get("dtfe.kernel.simd_batch_lanes", 0) == 0, \
    "simd off run recorded batched lanes"
print(f"simd on/off: checksums equal, {con} crossings each, "
      f"{lanes} batched lanes on the simd path")
PY
fi

if [ "$SKIP_TSAN" -eq 1 ]; then
  echo "== sanitizers (tsan + ubsan): skipped (--skip-tsan)"
  exit 0
fi

echo "== tsan: configure + build (build-thread/, DTFE_SANITIZE=thread)"
cmake -B build-thread -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DDTFE_SANITIZE=thread >/dev/null
cmake --build build-thread -j"$JOBS"

echo "== tsan: fault + durable + engine labels"
# TSAN_OPTIONS: fail the job on any report; second_deadlock_stack aids triage.
# The engine label carries the overlapped-executor determinism tests, so this
# is also the data-race gate for the --compute-ahead pipeline. libgomp's
# uninstrumented barriers need scripts/tsan.supp (see its header).
TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1 suppressions=$PWD/scripts/tsan.supp" \
    ctest --test-dir build-thread --output-on-failure -L 'fault|durable|engine'

echo "== ubsan: configure + build (build-ubsan/, DTFE_SANITIZE=undefined)"
cmake -B build-ubsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DDTFE_SANITIZE=undefined >/dev/null
cmake --build build-ubsan -j"$JOBS"

echo "== ubsan: geometry/kernel/nbody/engine suites"
# UBSan is built with -fno-sanitize-recover=all, so any undefined operation
# (misaligned SIMD load, signed overflow in the walk counters, bad enum cast
# in the codec, a shift out of range in the FOF 64-bit cell keys) aborts the
# test. The simd parity suite is the main target: it drives the packed
# load/store routes over degenerate geometry; nbody_test drives FOF over one
# and two cells per axis, ~1600 cells per axis, and non-finite positions.
# The targeted binaries run directly (ctest registers per-CASE names, not
# binary names); the engine label covers engine_test + executor_test.
for t in simd_parity_test ray_tetra_test kernels_test predicates_test \
         nbody_test; do
  "build-ubsan/tests/$t"
done
ctest --test-dir build-ubsan --output-on-failure -L engine

echo "== ci: all green"
