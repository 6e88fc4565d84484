#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of pdtfe (see perfbench/README.md).

usage: python3 perfbench/run.py --workload catalog|sky-map|velocity-ensemble
                                [--seed 1] [--seconds 30] [--trace 0|1] [--pin]

Run from the repository root. The first call builds the repository and the
measuring program pdtfe_bench (perfbench/pdtfe_bench.cpp) into .bench_build/.
Each call then, before any timing, generates the workload's halo-model
snapshots from --seed and asks the pdtfe CLI once per snapshot for its
reference checksums. Then:

  --trace 0  untraced end-to-end runs in a closed loop with one client (the
             next run starts when the previous one ends) for --seconds, each
             run in a fresh pdtfe_bench process, cycling through the snapshots.
             Prints the end-to-end metrics: the median over each snapshot's
             runs, averaged over the snapshots.
  --trace 1  two untraced runs and then pdtfe_bench's traced pass, on the
             first snapshot. Prints the per-layer metrics and writes the
             spans to .bench_build/work/<workload>-<seed>/spans.json.

  --pin      one run per snapshot; if each passes the gate, its checksums
             become the pinned reference of this workload and seed in
             perfbench/reference.json. No metrics.

Every run goes through the correctness gate: against the live CLI and, for
the seeds in perfbench/reference.json, against the pinned checksums. The
fields of a run that fails it count as failed. The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
THREADS = min(4, os.cpu_count() or 1)
MIN_RUNS = 3
TRACE_BASELINE_RUNS = 2
MASS_TOLERANCE = 0.01  # sky-map: rendered mass vs snapshot mass
REFERENCE = os.path.join(ROOT, "perfbench", "reference.json")
# Gate values pinned per snapshot, as pdtfe_bench run prints them.
PINNED_KEYS = {"pipeline": ["requested", "checksum_total", "channels"],
               "render": ["mass", "map_checksum"]}

# Every snapshot has the shape fixed in pdtfe_bench's cmd_generate: 120k
# particles in 96 halos in a box of 24, with a 10x halo mass range, so the
# field cubes of one seed hold about the same work as another's.
WORKLOADS = {
    # The paper's many-small-fields case: FOF-centred fields on two ranks.
    "catalog": {
        "pdtfe": ["pipeline", "--ranks", "2", "--fields", "96", "--grid", "32",
                  "--length", "3", "--threads", str(THREADS),
                  "--kernel", "march", "--field", "density"],
        "scaling": True,
    },
    # One whole-box map: no FOF, ranks, scheduling or work sharing.
    "sky-map": {
        "pdtfe": ["render", "--grid", "1024", "--method", "march"],
        "scaling": False,
    },
    # Vector channels plus ensemble smoothing through the same engine. Not in
    # BENCHMARK.json: its fields_per_s spreads more than any allowed bound
    # across seeds (perfbench/README.md).
    "velocity-ensemble": {
        "pdtfe": ["pipeline", "--ranks", "2", "--fields", "16", "--grid", "64",
                  "--length", "3", "--threads", str(THREADS),
                  "--field", "velocity", "--smooth-ensemble", "2"],
        "scaling": False,
    },
}
SNAPSHOTS_PER_SEED = 4

END_TO_END = {"wall_s": "s", "setup_s": "s", "fields_per_s": "1/s",
              "cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "nbody.read_snapshot.s": "s", "nbody.read_snapshot.mb_per_s": "MB/s",
    "nbody.fof.s": "s", "nbody.fof.share": "ratio", "nbody.fof.groups": "count",
    "framework.partition.cpu_s": "s", "framework.work_share.cpu_s": "s",
    "framework.model.cpu_s": "s", "framework.imbalance": "ratio",
    "framework.items_sent": "count",
    "engine.run_batch.s": "s", "engine.run_batch.cpu_s": "s",
    "engine.run_batch.cores_used": "ratio", "engine.thread_scaling": "ratio",
    "engine.field_cube.s": "s", "engine.kernel_render.s": "s",
    "engine.gather.s": "s", "engine.unattributed_frac": "ratio",
    "delaunay.triangulate.s": "s", "delaunay.triangulate.share": "ratio",
    "delaunay.inserts_per_s": "1/s", "delaunay.allocs_per_insert": "ratio",
    "delaunay.cells": "count", "delaunay.hull.s": "s",
    "dtfe.density.s": "s", "dtfe.geom_table.s": "s", "dtfe.coef_table.s": "s",
    "dtfe.tables.share": "ratio", "dtfe.march.s": "s",
    "dtfe.march.share": "ratio", "dtfe.march.rays": "count",
    "dtfe.march.crossings": "count", "dtfe.march.crossings_per_s": "1/s",
    "dtfe.march.perturb_restarts": "count", "dtfe.march.failed_cells": "count",
    "simmpi.messages_sent": "count", "simmpi.bytes_sent": "bytes",
    "op.delaunay.walk_steps": "count", "op.kernel.tetra_crossings": "count",
    "obs.trace_overhead_frac": "ratio", "bench.count_mismatches": "count",
}


class BenchError(Exception):
    pass


def call(cmd):
    """Run cmd in the checkout root to completion; its stdout as text."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise BenchError("%s exited %d:\n%s" % (" ".join(cmd), proc.returncode,
                                                proc.stderr[-2000:]))
    return proc.stdout


def build():
    """Configure the repository with pdtfe_bench attached; build both."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        raise BenchError("no CMakeLists.txt in %s: not a pdtfe checkout" % ROOT)
    if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        call(["cmake", "-S", ROOT, "-B", CMAKE_DIR,
              "-DCMAKE_PROJECT_INCLUDE=" +
              os.path.join(ROOT, "perfbench", "attach.cmake")])
    call(["cmake", "--build", CMAKE_DIR, "--target", "pdtfe", "pdtfe_bench",
          "-j", str(THREADS)])
    return (os.path.join(CMAKE_DIR, "apps", "pdtfe"),
            os.path.join(CMAKE_DIR, "pdtfe_bench"))


def reference(pdtfe, cmd, workdir):
    """What the pdtfe CLI prints for this snapshot and these flags."""
    extra = (["--out", os.path.join(workdir, "map.pgm")]
             if cmd[0] == "render" else [])
    out = call([pdtfe] + cmd + extra)
    ref = {"channels": {}}
    for line in out.splitlines():
        m = re.match(r"(\d+) field requests on FOF objects", line)
        if m:
            ref["fields"] = int(m.group(1))
        m = re.match(r"grid checksum total: (\S+)", line)
        if m:
            ref["checksum_total"] = m.group(1)
        m = re.match(r"field checksum (\S+): (\S+)", line)
        if m:
            ref["channels"][m.group(1)] = m.group(2)
        m = re.search(r"grid mass (\S+) of", line)
        if m:
            ref["mass"] = m.group(1)
    needed = ["fields", "checksum_total"] if cmd[0] == "pipeline" else ["mass"]
    if any(k not in ref for k in needed):
        raise BenchError("cannot parse the pdtfe reference output:\n" + out)
    return ref


def pinned_view(gate, sub):
    return {k: gate[k] for k in PINNED_KEYS[sub]}


def load_pinned(workload, seed):
    """Pinned gate values of each snapshot of this seed, or None."""
    with open(REFERENCE) as f:
        return json.load(f).get(workload, {}).get(str(seed))


def write_pinned(workload, seed, views):
    with open(REFERENCE) as f:
        pinned = json.load(f)
    pinned.setdefault(workload, {})[str(seed)] = views
    with open(REFERENCE, "w") as f:
        json.dump(pinned, f, indent=1, sort_keys=True)
        f.write("\n")


def gate_failures(run, ref, pinned, sub):
    """Fields of one run that fail the gate (all of them on a mismatch with
    the live CLI's reference or with the pinned one)."""
    g = run["gate"]
    if sub == "render":
        ok = g["mass"] == ref["mass"] and g["mass_rel_err"] < MASS_TOLERANCE
    else:
        ok = (g["requested"] == ref["fields"] and
              g["checksum_total"] == ref["checksum_total"] and
              g["channels"] == ref["channels"])
    if pinned is not None and pinned_view(g, sub) != pinned:
        ok = False
    return int(g["requested"]) if not ok else int(g["bad"])


def completed(run):
    """Requested fields that completed, did not fail, and are finite."""
    return run["gate"]["requested"] - run["gate"]["bad"]


def bench_json(cmd):
    return json.loads(call(cmd).strip().splitlines()[-1])


def closed_loop(bench, cmds, seconds, min_runs):
    """One client, each run in a fresh process, cycling through the
    snapshots; a run starts only if it is expected to end within `seconds`.
    Returns the runs of each snapshot."""
    runs = [[] for _ in cmds]
    durations = []
    start = time.monotonic()
    while True:
        k = len(durations) % len(cmds)
        t0 = time.monotonic()
        runs[k].append(bench_json([bench, "run"] + cmds[k]))
        durations.append(time.monotonic() - t0)
        elapsed = time.monotonic() - start
        if (len(durations) >= max(min_runs, len(cmds)) and
                elapsed + statistics.median(durations) > seconds):
            return runs


def aggregate(runs, value):
    """Median over each snapshot's runs, then the mean over the snapshots.
    With about 7 runs over 4 snapshots, a snapshot's median is over 1-2
    runs, i.e. their mean; the mean over snapshots damps seed-to-seed work
    differences, not a single slow run."""
    return statistics.fmean(statistics.median(value(r) for r in rs)
                            for rs in runs)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true")
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]
    sub = wl["pdtfe"][0]

    pdtfe, bench = build()
    workdir = os.path.join(BUILD, "work", "%s-%d" % (args.workload, args.seed))
    os.makedirs(workdir, exist_ok=True)
    cmds, refs = [], []
    for k in range(SNAPSHOTS_PER_SEED if args.trace == 0 else 1):
        snap = os.path.join(workdir, "snap%d.bin" % k)
        call([bench, "generate", "--out", snap,
              "--seed", str(args.seed * 1000 + k)])
        cmds.append(wl["pdtfe"][:1] + ["--in", snap] + wl["pdtfe"][1:])
        refs.append(reference(pdtfe, cmds[-1], workdir))
    pinned = None if args.pin else load_pinned(args.workload, args.seed)
    print("gate: live pdtfe CLI%s" % (
        "" if pinned is None else
        " and pinned references of seed %d" % args.seed))

    if args.pin:
        runs = [[bench_json([bench, "run"] + cmd)] for cmd in cmds]
    elif args.trace == 0:
        runs = closed_loop(bench, cmds, args.seconds, MIN_RUNS)
    else:
        runs = closed_loop(bench, cmds, 0, TRACE_BASELINE_RUNS)
    pins = pinned or [None] * len(runs)
    attempted = sum(int(r["gate"]["requested"]) for rs in runs for r in rs)
    failed = sum(gate_failures(r, ref, pin, sub)
                 for rs, ref, pin in zip(runs, refs, pins) for r in rs)
    correct = failed == 0
    if args.pin:
        if not correct:
            raise BenchError("not pinned: %d of %d fields fail the live gate"
                             % (failed, attempted))
        write_pinned(args.workload, args.seed,
                     [pinned_view(rs[0]["gate"], sub) for rs in runs])
        print("pinned %s seed %d in %s" % (args.workload, args.seed,
                                           os.path.relpath(REFERENCE, ROOT)))
        return 0

    if args.trace == 0:
        values = {
            "wall_s": aggregate(runs, lambda r: r["wall_s"]),
            "setup_s": aggregate(runs, lambda r: r["setup_s"]),
            "fields_per_s": aggregate(
                runs, lambda r: completed(r) / (r["wall_s"] - r["setup_s"])),
            "cpu_s": aggregate(runs, lambda r: r["cpu_s"]),
            "peak_rss_mb": aggregate(runs, lambda r: r["peak_rss_mb"]),
        }
        units = END_TO_END
        print("runs: %d in a closed loop, one client, over %d snapshots" %
              (sum(len(rs) for rs in runs), len(runs)))
        print("host: %s" % json.dumps(runs[0][0]["host"]))
    else:
        spans = os.path.join(workdir, "spans.json")
        traced = bench_json([bench, "trace", "--spans-out", spans,
                              "--scaling", "1" if wl["scaling"] else "0"] +
                             cmds[0])
        correct = correct and traced["correct"]
        values = dict(traced["metrics"])
        untraced_wall = statistics.median(r["wall_s"] for r in runs[0])
        values["obs.trace_overhead_frac"] = (
            (values.pop("bench.traced_wall_s") - untraced_wall) / untraced_wall)
        values["bench.count_mismatches"] = len(traced["count_mismatches"])
        units = PER_LAYER
        for name, why in traced["absent"].items():
            print("absent: %s (%s)" % (name, why))
        for name in traced["count_mismatches"]:
            print("count differs between two traced passes: %s" % name)
        print("spans: %s" % os.path.relpath(spans, ROOT))
        print("host: %s" % json.dumps(traced["host"]))
    print("failed_frac: %.6g ratio (%d of %d fields)" %
          (failed / attempted, failed, attempted))
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError, KeyError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        sys.exit(1)
