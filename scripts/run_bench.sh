#!/usr/bin/env bash
# Persistent benchmark trajectory: one command that measures the perf-critical
# paths and writes a schema-stable BENCH_kernel.json at the repo root, so the
# numbers ride along with the code and regressions show up in review diffs.
#
# Three measurements:
#   (1) micro_delaunay insert-scratch A/B — inserts/sec and allocations per
#       insert with and without TriangulationOptions::reuse_insert_scratch;
#   (2) micro_kernels render throughput (marching tables + rays, walking)
#       and the crossing-test A/B (SoA coefficient form vs AoS oracle);
#   (3) end-to-end `pdtfe pipeline` on a generated snapshot at --threads 1
#       and at --threads $(nproc), asserting the grid checksums are EXACTLY
#       equal (the thread budget must never change results) and recording
#       both wall times, the crossing throughput, and the machine-independent
#       op counters (dtfe.delaunay.walk_steps, dtfe.kernel.tetra_crossings)
#       that CI pins.
#
# usage: run_bench.sh [--smoke] [--out FILE]
#   --smoke   small fixture + short benchmark reps (the CI perf-smoke job)
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
cmake --build "$BUILD" --target pdtfe micro_delaunay micro_kernels \
      -j"$(nproc)" >/dev/null
PDTFE="$BUILD/apps/pdtfe"

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

if [ "$SMOKE" = 1 ]; then
  MODE=smoke N=40000 FIELDS=6 GRID=24 RANKS=2 MIN_TIME=0.05
else
  MODE=full N=120000 FIELDS=16 GRID=32 RANKS=2 MIN_TIME=0.2
fi
THREADS="$(nproc)"

echo "== micro_delaunay (insert-scratch A/B)"
"$BUILD/bench/micro_delaunay" \
    --benchmark_filter='BM_DelaunayInsertScratch' \
    --benchmark_format=json --benchmark_min_time="$MIN_TIME" \
    > "$TMP/delaunay.json" 2>/dev/null

echo "== micro_kernels (render throughput + crossing-test A/B)"
"$BUILD/bench/micro_kernels" \
    --benchmark_filter='BM_March|BM_WalkingRender|BM_VerticalCrossing' \
    --benchmark_format=json --benchmark_min_time="$MIN_TIME" \
    > "$TMP/kernels.json" 2>/dev/null

echo "== end-to-end pipeline: --threads 1 vs --threads $THREADS"
SNAP="$TMP/snap.bin"
"$PDTFE" generate --out "$SNAP" --n "$N" --box 16 --seed 3 >/dev/null
for t in 1 "$THREADS"; do
  "$PDTFE" pipeline --in "$SNAP" --ranks "$RANKS" --fields "$FIELDS" \
      --grid "$GRID" --length 3 --threads "$t" \
      --report "$TMP/threads$t" --metrics-out "$TMP/threads${t}_metrics.json" \
      >/dev/null
done

python3 - "$TMP" "$OUT" "$MODE" "$N" "$FIELDS" "$RANKS" "$THREADS" <<'PY'
import json, os, sys

tmp, out, mode = sys.argv[1], sys.argv[2], sys.argv[3]
n, fields, ranks, threads = (int(v) for v in sys.argv[4:8])

def load(name):
    with open(os.path.join(tmp, name)) as f:
        return json.load(f)

dl = {b["name"]: b for b in load("delaunay.json")["benchmarks"]}
reuse = dl["BM_DelaunayInsertScratch/20000/1"]
noreuse = dl["BM_DelaunayInsertScratch/20000/0"]

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

one = load("threads1.json")["summary"]
many = load(f"threads{threads}.json")["summary"]
one_m = load("threads1_metrics.json")
many_m = load(f"threads{threads}_metrics.json")

checksums_equal = one["grid_checksum_total"] == many["grid_checksum_total"]
if not checksums_equal:
    print(f"FATAL: --threads {threads} checksum differs from --threads 1",
          file=sys.stderr)

doc = {
    "schema": "pdtfe-bench-v2",
    "mode": mode,
    "host": {"cores": os.cpu_count(), "platform": os.uname().sysname,
             "simd_isa": simd_isa},
    "micro_delaunay": {
        "inserts_per_sec_reuse": round(reuse["items_per_second"]),
        "inserts_per_sec_noreuse": round(noreuse["items_per_second"]),
        "allocs_per_insert_reuse": round(reuse["allocs_per_insert"], 6),
        "allocs_per_insert_noreuse": round(noreuse["allocs_per_insert"], 6),
    },
    "micro_kernels": kernels,
    "coef_vs_aos": coef_vs_aos,
    "pipeline": {
        "particles": n,
        "fields": fields,
        "ranks": ranks,
        "threads": threads,
        "wall_s_threads_1": round(one["wall_s"], 4),
        "wall_s_threads_all": round(many["wall_s"], 4),
        "checksum_threads_1": one["grid_checksum_total"],
        "checksum_threads_all": many["grid_checksum_total"],
        "checksums_equal": checksums_equal,
        "op_counters": {
            "dtfe.delaunay.walk_steps":
                one_m["counters"]["dtfe.delaunay.walk_steps"],
            "dtfe.kernel.tetra_crossings":
                one_m["counters"]["dtfe.kernel.tetra_crossings"],
        },
        # Derived throughput: tetra crossings processed per wall-second at
        # the full thread budget. The crossing count is machine-independent,
        # so this is the kernel work rate, comparable across runs with the
        # same fixture.
        "crossings_per_sec": round(
            many_m["counters"]["dtfe.kernel.tetra_crossings"]
            / many["wall_s"]),
    },
}
with open(out, "w") as f:
    json.dump(doc, f, indent=2, sort_keys=False)
    f.write("\n")
print(f"wrote {out}: wall {doc['pipeline']['wall_s_threads_1']} s at 1 "
      f"thread, {doc['pipeline']['wall_s_threads_all']} s at {threads}, "
      f"checksums_equal={checksums_equal}")
sys.exit(0 if checksums_equal else 1)
PY
