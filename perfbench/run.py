#!/usr/bin/env python3
"""Repository benchmark: build perfbench, run one workload, report metrics.

One run (what BENCHMARK.json's command invokes):

    python3 perfbench/run.py --workload signoff_ldpc_k16 --seed 7 --seconds 45 --trace 0

prints a host block on stderr and, as the last stdout line, one JSON object
with the keys correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics of BENCHMARK.json; --trace 1 runs a traced iteration
beside an untraced one and reports the per-layer metrics.

Repeated runs:

    python3 perfbench/run.py --workload flow_mesh164k --repeat 10 [--trace 0|1]

runs the workload N times, each in its own process and with seeds seed,
seed+1, ..., and prints every metric with its unit and direction as median
and quartiles, plus the failed/attempted totals.

The first run configures and builds perfbench/CMakeLists.txt into
.bench_build/ under the repository root; later runs only check that the
build is current. Everything a run writes stays under .bench_build/.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configure once, then let the build tool decide what is stale."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no program sources under " + ROOT)
    jobs = str(min(os.cpu_count() or 1, 4))
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr,
                   stderr=sys.stderr,
                   timeout=max(1.0, deadline - time.monotonic()))


def git_revision():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown (not a git checkout)"


# ---- trace aggregation ------------------------------------------------------

# Per-layer span times: summed per name over threads, after merging the
# overlapping intervals of one thread (a worker helping its pool can nest
# a span inside another of the same name). Counts are numbers of spans.
SPAN_TIMES = {
    "opt.synth_s": ["synth"],
    "opt.post_place_s": ["post_place_opt"],
    "opt.post_cts_s": ["post_cts_opt"],
    "route.pass_s": ["route_pass"],
    "sta.forward_s": ["sta_forward"],
    "sta.backward_s": ["sta_backward"],
    "sta.retime_s": ["sta_retime"],
    "sta.corner_sweep_s": ["sta_corner_sweep"],
    "part.partition_s": ["partition"],
    "part.fm_pass_s": ["fm_pass", "kway_pass"],
    "part.eco_s": ["repartition_eco"],
    "place.global_s": ["place"],
    "place.relax_pass_s": ["relax_pass"],
    "cts.build_s": ["cts"],
    "core.checkpoint_write_s": ["checkpoint_write"],
}
SPAN_COUNTS = {
    "route.passes": "route_pass",
    "sta.full_runs": "sta_forward",
    "sta.retimes": "sta_retime",
    "core.checkpoint_writes": "checkpoint_write",
}
# Per-sample counters (one value per event): summed.
COUNTER_SUMS = {"sta.retime_pins": "sta_retime_pins"}
# Cumulative ECO counters: each repartition_eco call samples its running
# total once per iteration, starting again from zero.
ECO_COUNTERS = {
    "part.eco_cells_moved": "eco_cells_moved",
    "part.eco_moves_undone": "eco_moves_undone",
}


def merged_seconds(intervals):
    total, end = 0, None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total / 1e6


def eco_total(events, counter):
    """Sum of the final value of every repartition_eco call.

    A sample belongs to the innermost "flow" span of its thread. Within one
    flow, every ECO call starts with a full route_design (a route_pass span
    of that flow), as does the tier rebalance between the two calls, so the
    route_pass starts split the flow's samples into calls.
    """
    flows = [e for e in events if e.get("ph") == "X" and e["name"] == "flow"]

    def owner(e):
        best = None
        for f in flows:
            if (f["tid"] == e["tid"] and f["ts"] <= e["ts"] <= f["ts"] + f["dur"]
                    and (best is None or f["ts"] > best["ts"])):
                best = f
        return None if best is None else id(best)

    marks = []  # (ts, order, flow, value): route_pass start or sample
    for e in events:
        if e.get("ph") == "X" and e["name"] == "route_pass":
            marks.append((e["ts"], 0, owner(e), None))
        elif e.get("ph") == "C" and e["name"] == counter:
            marks.append((e["ts"], 1, owner(e), e["args"]["value"]))
    last = {}
    segment = {}
    for ts, _, flow, value in sorted(marks, key=lambda m: (m[0], m[1])):
        if value is None:
            segment[flow] = segment.get(flow, 0) + 1
        else:
            last[(flow, segment.get(flow, 0))] = value
    return float(sum(last.values()))


def layer_metrics(trace_path):
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    spans = {}
    counts = {}
    for e in events:
        if e.get("ph") == "X":
            spans.setdefault((e["name"], e["tid"]), []).append(
                (e["ts"], e["ts"] + e["dur"]))
        counts[(e.get("ph"), e["name"])] = counts.get((e.get("ph"), e["name"]), 0) + 1
    out = {}
    for metric, names in SPAN_TIMES.items():
        out[metric] = sum(merged_seconds(iv) for (n, _), iv in spans.items()
                          if n in names)
    for metric, name in SPAN_COUNTS.items():
        out[metric] = float(counts.get(("X", name), 0))
    for metric, name in COUNTER_SUMS.items():
        out[metric] = float(sum(e["args"]["value"] for e in events
                                if e.get("ph") == "C" and e["name"] == name))
    for metric, name in ECO_COUNTERS.items():
        out[metric] = eco_total(events, name)
    return out


# ---- one run ----------------------------------------------------------------

def median(values):
    return statistics.median(values) if values else 0.0


def run_once(workload, seed, seconds, trace):
    names = {w["name"] for w in spec()["workloads"]}
    if workload not in names:
        raise RuntimeError("unknown workload " + workload)
    build()
    work = os.path.join(ROOT, ".bench_build", "run-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        cmd = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace)),
               "--work-dir", work]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError("perfbench exited with %d" % proc.returncode)
        raw = json.loads(proc.stdout.strip().splitlines()[-1])
        layers = [layer_metrics(p) for p in raw["traces"]]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    log("host: nproc=%d pool=%d compiler=%s build=%s rev=%s" % (
        raw["nproc"], raw["pool"], raw["compiler"], raw["build_type"],
        git_revision()))
    for err in raw["errors"]:
        log("failed:", err)

    values = dict(raw["values"])
    for name in list(SPAN_TIMES) + list(SPAN_COUNTS) + list(COUNTER_SUMS) \
            + list(ECO_COUNTERS):
        values[name] = median([l[name] for l in layers])

    group = "per_layer" if trace else "end_to_end"
    metrics = {}
    for m in spec()[group]:
        metrics[m["name"]] = {"value": float(values[m["name"]]),
                              "unit": m["unit"]}
    return {"correct": raw["failed"] == 0, "attempted": raw["attempted"],
            "failed": raw["failed"], "metrics": metrics}


# ---- repeated runs ----------------------------------------------------------

def repeat(workload, seed, seconds, trace, n):
    runs = []
    for i in range(n):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload",
               workload, "--seed", str(seed + i), "--seconds", str(seconds),
               "--trace", str(int(trace))]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=BUILD_TIMEOUT_S + RUN_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError("run %d exited with %d" % (i, proc.returncode))
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    group = "per_layer" if trace else "end_to_end"
    print("%s: %d runs, seeds %d..%d, %d s each" % (
        workload, n, seed, seed + n - 1, seconds))
    print("%-26s %-6s %-7s %14s %14s %14s %8s" % (
        "metric", "unit", "better", "q1", "median", "q3", "iqr/med"))
    for m in spec()[group]:
        vals = [r["metrics"][m["name"]]["value"] for r in runs]
        q1, med, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                       else (vals[0],) * 3)
        spread = (q3 - q1) / med if med else float("nan")
        print("%-26s %-6s %-7s %14.6g %14.6g %14.6g %8.4f" % (
            m["name"], m["unit"], m["better"], q1, med, q3, spread))
    print("failed/attempted: %d/%d" % (sum(r["failed"] for r in runs),
                                       sum(r["attempted"] for r in runs)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=int, default=None,
                    help="measured time per run (default: BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--repeat", type=int, default=0,
                    help="run the workload N times and summarize")
    args = ap.parse_args()
    try:
        seconds = args.seconds or spec()["run_seconds"]
        if args.repeat > 0:
            repeat(args.workload, args.seed, seconds, args.trace, args.repeat)
        else:
            print(json.dumps(run_once(args.workload, args.seed, seconds,
                                      args.trace)))
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log("perfbench: %s" % e)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
