#!/usr/bin/env bash
# Persistent benchmark trajectory: one command that measures the perf-critical
# paths and writes a schema-stable BENCH_kernel.json at the repo root, so the
# numbers ride along with the code and regressions show up in review diffs.
#
# Two measurements:
#   (1) micro_delaunay clustered build — inserts/sec and allocations per
#       insert of BM_DelaunayBuildClustered/20000;
#   (2) micro_kernels render throughput (marching tables + rays, walking)
#       and the crossing-test A/B (SoA coefficient form vs AoS oracle).
# End-to-end timings come from perfbench/run.py (BENCHMARK.json); the
# thread-budget checksum equality and the pinned op counters of the smoke
# fixture are the `perf` ctest (tests/perf/op_counters_test.cpp).
#
# usage: run_bench.sh [--smoke] [--out FILE]
#   --smoke   short benchmark reps (the CI perf-smoke job)
#   --out     output path (default: BENCH_kernel.json at the repo root)
set -euo pipefail

cd "$(dirname "$0")/.."

SMOKE=0
OUT="BENCH_kernel.json"
while [ $# -gt 0 ]; do
  case "$1" in
    --smoke) SMOKE=1; shift ;;
    --out) OUT="$2"; shift 2 ;;
    *) echo "unknown flag $1" >&2; exit 2 ;;
  esac
done

BUILD=build
[ -f "$BUILD/CMakeCache.txt" ] || cmake -B "$BUILD" -S . >/dev/null
cmake --build "$BUILD" --target micro_delaunay micro_kernels \
      -j"$(nproc)" >/dev/null

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

if [ "$SMOKE" = 1 ]; then
  MODE=smoke MIN_TIME=0.05
else
  MODE=full MIN_TIME=0.2
fi

echo "== micro_delaunay (clustered build)"
"$BUILD/bench/micro_delaunay" \
    --benchmark_filter='BM_DelaunayBuildClustered/20000' \
    --benchmark_format=json --benchmark_min_time="$MIN_TIME" \
    > "$TMP/delaunay.json" 2>/dev/null

echo "== micro_kernels (render throughput + crossing-test A/B)"
"$BUILD/bench/micro_kernels" \
    --benchmark_filter='BM_March|BM_WalkingRender|BM_VerticalCrossing' \
    --benchmark_format=json --benchmark_min_time="$MIN_TIME" \
    > "$TMP/kernels.json" 2>/dev/null

python3 - "$TMP" "$OUT" "$MODE" <<'PY'
import json, os, sys

tmp, out, mode = sys.argv[1], sys.argv[2], sys.argv[3]

def load(name):
    with open(os.path.join(tmp, name)) as f:
        return json.load(f)

dl = {b["name"]: b for b in load("delaunay.json")["benchmarks"]}
clustered = dl["BM_DelaunayBuildClustered/20000"]

kjson = load("kernels.json")
# The custom micro_kernels main records the compiled SIMD ISA in the
# benchmark context ("sse2" / "neon" / "scalar").
simd_isa = kjson.get("context", {}).get("simd_isa", "unknown")

kernels = {}
crossing = {}
for b in kjson["benchmarks"]:
    row = {
        "real_time_ms": round(b["real_time"], 3)
        if b["time_unit"] == "ms" else round(b["real_time"] / 1e6, 3),
        "items_per_second": b.get("items_per_second"),
    }
    if b["name"].startswith("BM_VerticalCrossing"):
        crossing[b["name"]] = b["items_per_second"]
    else:
        kernels[b["name"]] = row

# Crossing-test A/B: the SoA coefficient route the march runs vs the
# pre-table AoS scalar test (both classify identical crossings; see
# bench/micro_kernels.cpp). CI floors the speedup at 1.3x.
aos = crossing["BM_VerticalCrossingAos"]
coef = crossing["BM_VerticalCrossingCoef"]
coef_vs_aos = {
    "crossings_per_sec_aos_scalar": round(aos),
    "crossings_per_sec_coef": round(coef),
    "speedup_coef_vs_aos": round(coef / aos, 3),
}

doc = {
    "schema": "pdtfe-bench-v4",
    "mode": mode,
    "host": {"cores": os.cpu_count(), "platform": os.uname().sysname,
             "simd_isa": simd_isa},
    "micro_delaunay": {
        "benchmark": clustered["name"],
        "inserts_per_sec": round(clustered["items_per_second"]),
        "allocs_per_insert": round(clustered["allocs_per_insert"], 6),
    },
    "micro_kernels": kernels,
    "coef_vs_aos": coef_vs_aos,
}
with open(out, "w") as f:
    json.dump(doc, f, indent=2, sort_keys=False)
    f.write("\n")
print(f"wrote {out}: coef-vs-AoS crossing speedup "
      f"{coef_vs_aos['speedup_coef_vs_aos']}x")
PY
