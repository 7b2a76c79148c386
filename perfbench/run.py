#!/usr/bin/env python3
"""Campaign benchmark: spec-to-report wall time and a traced per-layer split.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload kernel_torus --seed 1 --seconds 45 --trace 0

The first call builds perfbench/ (which compiles the library from src/) into
.bench_build/perfbench. The harness binary runs the workload's campaigns
through the public entry points and prints raw samples; this script turns
them into metrics, prints every metric with its unit, writes the full record
to .bench_build/perfbench/reports/, and prints as its last line one JSON
object with the metrics BENCHMARK.json lists (--trace 0: end_to_end,
--trace 1: per_layer). See perfbench/README.md for what each metric means.
"""

import argparse
import bisect
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
HARNESS = os.path.join(BUILD_DIR, "perfbench_harness")
WORKLOADS = ("lambda_solve", "kernel_torus", "sweep_small", "queue_sweep")
# The per-layer terms that add up to traced_wall_s (see README.md).
SPLIT = ("campaign.parse_expand_s", "campaign.dirs_s", "graph.build_s",
         "lambda.solve_s", "lambda.wait_s", "engine.flows_s", "engine.rounding_s",
         "engine.apply_s", "engine.workload_s", "checkpoint.write_s", "runner.self_s",
         "report.merge_s", "queue.self_s", "pool.idle_s", "report.write_s",
         "unattributed_s")
# Slack for the split checks: trace timestamps are whole microseconds.
SPLIT_TOLERANCE_S = 1e-3


def check_split(split, worker_span_s, lane_s):
    """Raises if a split term is negative or the worker spans overfill the lanes.

    Every term but unattributed_s is a measured time or a difference of
    nested spans, so none may be negative; a negative one means a span was
    counted twice (say, a lambda wait overlapping a child span). The
    top-level worker spans must fit in lanes x the executor call's time.
    """
    negative = {k: v for k, v in split.items() if v < -SPLIT_TOLERANCE_S}
    if negative:
        raise RuntimeError("per-layer split has negative terms: %s" % negative)
    if worker_span_s > lane_s + SPLIT_TOLERANCE_S:
        raise RuntimeError("worker spans %.6f s exceed lanes x execute_s %.6f s"
                           % (worker_span_s, lane_s))


def build():
    """Configures and builds the harness; a no-op when it is up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "dlb.hpp")):
        raise RuntimeError("library sources (src/) not found next to perfbench/")
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")) and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    for command in (configure, ["cmake", "--build", BUILD_DIR, "-j", "4"]):
        done = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise RuntimeError("build failed: " + " ".join(command))


def run_harness(args, work_dir):
    """Runs the harness; returns its output documents merged into one dict."""
    command = [HARNESS, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--dir", work_dir]
    if args.scale:
        command += ["--scale", args.scale]
    done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    if done.returncode != 0:
        raise RuntimeError("harness exited with code %d" % done.returncode)
    samples = {"campaigns": [], "rss_mb": [], "cpu_s": [], "steal_s": [], "attempted": 0, "failed": 0, "failures": []}
    decoder = json.JSONDecoder()
    text, pos = done.stdout, 0
    while text[pos:].strip():
        pos += len(text[pos:]) - len(text[pos:].lstrip())
        doc, pos = decoder.raw_decode(text, pos)
        kind = doc.pop("kind")
        if kind in ("campaign", "reference"):
            # One campaign, run and checked in its own child process.
            for key in ("attempted", "failed"):
                samples[key] += doc.pop(key)
            samples["failures"] += doc.pop("failures")
            run = doc.pop("run")
            if kind == "campaign":
                samples["campaigns"].append(run)
            for key, value in doc.items():
                samples.setdefault(key, value)
        elif kind == "rss":
            if doc["of"] == "campaign":
                samples["rss_mb"].append(doc["peak_rss_mb"])
                samples["cpu_s"].append(doc["cpu_s"])
                samples["steal_s"].append(doc["steal_s"])
        else:  # header, setup, traced
            samples.update(doc)
    return samples


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q):
    """Nearest-rank percentile of `values` (q in [0, 100])."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


# -- host and build record ----------------------------------------------------------


def cache_sizes():
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    if not os.path.isdir(base):
        return sizes
    for index in sorted(os.listdir(base)):
        try:
            with open(os.path.join(base, index, "level")) as f:
                level = f.read().strip()
            with open(os.path.join(base, index, "type")) as f:
                kind = f.read().strip()
            with open(os.path.join(base, index, "size")) as f:
                text = f.read().strip()
        except OSError:
            continue
        if kind == "Instruction":
            continue
        scale = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}.get(text[-1:], 1)
        sizes["L" + level] = int(text.rstrip("KMG")) * scale
    return sizes


def host_record(samples):
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if done.returncode == 0:
            commit = done.stdout.strip()
    record = {"cpu_model": model, "nproc": os.cpu_count(),
              "cache_bytes": cache_sizes(), "commit": commit}
    record.update(samples.get("build", {}))
    return record


def working_set(samples, caches):
    """Computed engine working set of the run's largest scenario(s) vs L2/L3."""
    per_scenario = samples.get("largest_scenario_engine_bytes", 0)
    concurrent = samples.get("concurrent_scenarios", 1)
    total = per_scenario * concurrent
    record = {"engine_bytes_per_scenario": per_scenario,
              "concurrent_scenarios": concurrent,
              "engine_bytes_total": total, "computed": True}
    for level in ("L2", "L3"):
        if caches.get(level):
            record["ratio_to_" + level] = total / caches[level]
    return record


# -- end-to-end metrics (--trace 0) -----------------------------------------------------


def end_to_end(samples):
    runs = samples["campaigns"]
    walls = [r["wall_s"] for r in runs]
    metrics = {
        "wall_s": (median(walls), "s"),
        "setup_s": (median(samples["setup_samples_s"]), "s"),
        "edge_rounds_per_s": (median([r["edge_rounds"] / r["wall_s"] for r in runs]), "1/s"),
        "scenarios_per_s": (median([r["scenarios"] / r["wall_s"] for r in runs]), "1/s"),
        "peak_rss_mb": (median(samples["rss_mb"]), "MiB"),
    }
    extra = {
        "campaigns": (len(runs), "count"),
        "setup_samples": (len(samples["setup_samples_s"]), "count"),
        "setup_dirs_s": (median(samples["setup_dirs_samples_s"]), "s"),
        "cpu_s": (median(samples["cpu_s"]), "s"),
        "steal_s": (sum(samples["steal_s"]), "s"),
        "failed_frac": (samples["failed"] / max(1, samples["attempted"]), "ratio"),
    }
    if samples["lambda_gap_rel_err"] >= 0:
        extra["lambda_gap_rel_err"] = (samples["lambda_gap_rel_err"], "ratio")
    # Per-scenario latency only where a run has >= 200 scenarios, so that
    # at least ten samples lie beyond p95.
    latencies = [t for r in runs for t in r.get("scenario_wall_s", [])]
    if runs and runs[0]["scenarios"] >= 200 and latencies:
        extra["scenario_p50_s"] = (percentile(latencies, 50), "s")
        extra["scenario_p95_s"] = (percentile(latencies, 95), "s")
        extra["scenario_latency_samples"] = (len(latencies), "count")
    return metrics, extra


# -- per-layer metrics (--trace 1) ------------------------------------------------------


def load_spans(path):
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    spans = []
    for e in events:
        if e.get("ph") == "X":
            start = float(e["ts"]) * 1e-6
            spans.append((e["cat"], e["name"], e["tid"], start, start + float(e["dur"]) * 1e-6))
    return spans


def total(spans):
    return sum(end - start for _, _, _, start, end in spans)


def union(intervals):
    merged = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return merged


def overlap(intervals, covered):
    """Seconds of `intervals` (disjoint) that lie inside union `covered`."""
    seconds = 0.0
    for start, end in intervals:
        for c_start, c_end in covered:
            seconds += max(0.0, min(end, c_end) - max(start, c_start))
    return seconds


def graph_of(label):
    """The "<topology>-n<nodes>" prefix of a scenario label."""
    match = re.match(r"^(.*?-n\d+)-", label)
    return match.group(1) if match else label


def lambda_wait(spans):
    """Seconds scenarios spent blocked on another worker's lambda solve.

    Estimated from the trace: the time a scenario span that ran no solve of
    its own spends outside its child spans while another thread solves
    lambda for a graph of the same family and size (the graph cache's
    per-key call_once blocks it there).
    """
    by_thread = {}  # tid -> sorted child spans (start, end, name)
    for cat, name, tid, start, end in spans:
        if cat == "engine" or name in ("graph.build", "lambda.compute"):
            by_thread.setdefault(tid, []).append((start, end, name))
    for children in by_thread.values():
        children.sort()

    def children_of(tid, start, end):
        children = by_thread.get(tid, [])
        first = bisect.bisect_left(children, (start,))
        last = bisect.bisect_right(children, (end, float("inf")))
        return [c for c in children[first:last] if c[1] <= end]

    scenarios = [s for s in spans if s[0] == "scenario"]
    computes = []  # (graph, tid, start, end) of every lambda solve
    solved_in = set()  # scenarios that ran a solve themselves
    for scenario in scenarios:
        _, label, tid, start, end = scenario
        for c_start, c_end, name in children_of(tid, start, end):
            if name == "lambda.compute":
                computes.append((graph_of(label), tid, c_start, c_end))
                solved_in.add(scenario)
    waited = 0.0
    for scenario in scenarios:
        _, label, tid, start, end = scenario
        others = union([(c[2], c[3]) for c in computes
                        if c[1] != tid and c[0] == graph_of(label)])
        if scenario in solved_in or not others:
            continue
        gaps, cursor = [], start
        for c_start, c_end in union([(c[0], c[1]) for c in children_of(tid, start, end)]):
            if c_start > cursor:
                gaps.append((cursor, c_start))
            cursor = max(cursor, c_end)
        if cursor < end:
            gaps.append((cursor, end))
        waited += overlap(gaps, others)
    return waited


def per_layer(samples):
    traced = samples["traced"]
    untraced = samples["untraced"]
    obs = samples["obs_metrics"]
    lanes = max(1, samples["lanes"])
    spans = load_spans(samples["trace_path"])

    def named(name):
        return [s for s in spans if s[1] == name]

    def counter(name):
        return obs.get(name, {}).get("value", 0)

    scenario = total([s for s in spans if s[0] == "scenario"])
    graph_build = total(named("graph.build"))
    lambda_spans = named("lambda.compute")
    lambda_solve = total(lambda_spans)
    phases = {p: total([s for s in spans if s[0] == "engine" and s[1] == p])
              for p in ("flows", "rounding", "apply", "workload", "checkpoint")}
    waited = lambda_wait(spans)
    merge = total(named("merge"))
    queue_run = total(named("queue.run"))
    runner_self = scenario - graph_build - lambda_solve - waited - sum(phases.values())
    top_level = queue_run if queue_run > 0 else scenario
    queue_self = queue_run - scenario - merge if queue_run > 0 else 0.0
    idle = lanes * traced["execute_s"] - top_level

    # Wall-time split of the traced campaign (SPLIT): worker-seconds divided
    # by the number of lanes (concurrent scenario workers), main-thread
    # phases as measured. These add up to traced_wall_s by construction of
    # unattributed_s.
    split = {
        "campaign.parse_expand_s": traced["parse_expand_s"],
        "campaign.dirs_s": traced["setup_s"] - traced["parse_expand_s"],
        "graph.build_s": graph_build / lanes,
        "lambda.solve_s": lambda_solve / lanes,
        "lambda.wait_s": waited / lanes,
        "engine.flows_s": phases["flows"] / lanes,
        "engine.rounding_s": phases["rounding"] / lanes,
        "engine.apply_s": phases["apply"] / lanes,
        "engine.workload_s": phases["workload"] / lanes,
        "checkpoint.write_s": phases["checkpoint"] / lanes,
        "runner.self_s": runner_self / lanes,
        "report.merge_s": merge / lanes,
        "queue.self_s": queue_self / lanes,
        "pool.idle_s": idle / lanes,
        "report.write_s": traced["report_write_s"],
    }
    unattributed = traced["wall_s"] - sum(split.values())
    assert list(split) + ["unattributed_s"] == list(SPLIT)
    check_split(dict(split, unattributed_s=unattributed), top_level,
                lanes * traced["execute_s"])

    legs = {leg["threads"]: leg for leg in samples["step_legs"]}
    engine_threads = samples["engine_threads"] if samples["engine_threads"] in legs else 1
    steps_us = [t * 1e6 for t in legs[engine_threads]["step_s"]]
    serial = median(legs[1]["step_s"])
    widest = max(legs)
    speedup = {n: serial / median(leg["step_s"]) for n, leg in legs.items() if n > 1}
    pool_source = legs[widest] if widest > 1 else {
        "chunk_pulls": counter("thread_pool.chunk_pulls"),
        "chunk_steals": counter("thread_pool.chunk_steals")}
    graph_lookups = counter("graph_cache.graph_hits") + counter("graph_cache.graph_misses")
    queue = traced.get("queue", {})
    checkpoint = samples["checkpoint_leg"]
    edge_rounds = traced["edge_rounds"]

    m = {name: (value, "s") for name, value in split.items()}
    m.update({
        "traced_wall_s": (traced["wall_s"], "s"),
        "unattributed_s": (unattributed, "s"),
        "trace.overhead_frac": (traced["wall_s"] / untraced["wall_s"] - 1.0, "ratio"),
        "graph.builds": (len(named("graph.build")), "count"),
        "graph.cache_hit_ratio": (counter("graph_cache.graph_hits") / graph_lookups
                                  if graph_lookups else 0.0, "ratio"),
        "lambda.solves": (len(lambda_spans), "count"),
        "lambda.solve_max_s": (max((e - s for _, _, _, s, e in lambda_spans), default=0.0), "s"),
        "lambda_gap_rel_err": (max(0.0, samples["lambda_gap_rel_err"]), "ratio"),
        "engine.step_s": (sum(phases[p] for p in ("flows", "rounding", "apply")) / lanes, "s"),
        "engine.step_p50_us": (percentile(steps_us, 50), "us"),
        "engine.step_p99_us": (percentile(steps_us, 99), "us"),
        "engine.edge_rounds": (edge_rounds, "count"),
        "engine.bytes_per_round": (samples["step_engine_bytes"], "B"),
        "engine.speedup_2t": (speedup.get(2, 0.0), "ratio"),
        "engine.speedup_4t": (speedup.get(widest, 0.0) if widest > 2 else 0.0, "ratio"),
        "pool.steal_ratio": (pool_source["chunk_steals"] / pool_source["chunk_pulls"]
                             if pool_source["chunk_pulls"] else 0.0, "ratio"),
        "scratch.pool_hit_ratio": (counter("scratch.pool_hits") / counter("scratch.acquires")
                                   if counter("scratch.acquires") else 0.0, "ratio"),
        "report.bytes": (traced["report_bytes"], "B"),
        "queue.overhead_s": (untraced["wall_s"] - samples["sweep_small_reference"]["wall_s"]
                             if "sweep_small_reference" in samples else 0.0, "s"),
        "queue.leases": (queue.get("leases", 0), "count"),
        "queue.re_leased": (queue.get("re_leased", 0), "count"),
        "queue.stolen": (queue.get("stolen", 0), "count"),
        "queue.disk_bytes": (queue.get("disk_bytes", 0), "B"),
        "checkpoint.writes": (obs.get("engine.checkpoint_ns", {}).get("value", 0), "count"),
        "checkpoint.files": (checkpoint["files"], "count"),
        "checkpoint.bytes": (checkpoint["bytes"], "B"),
        "checkpoint.read_s": (checkpoint["read_s"], "s"),
    })
    extra = {"untraced_wall_s": (untraced["wall_s"], "s"),
             "worker_span_s": (top_level, "s"),
             "lane_s": (lanes * traced["execute_s"], "s"),
             "lanes": (lanes, "count"),
             "step_samples": (len(steps_us), "count")}
    return m, extra


# -- main ---------------------------------------------------------------------------------


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("tiny",), help="self-test sizes")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    build()

    work_dir = os.path.join(BUILD_DIR, "runs", "%s-s%d-t%d-%d" % (
        args.workload, args.seed, args.trace, os.getpid()))
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        samples = run_harness(args, work_dir)
        if args.trace:
            metrics, extra = per_layer(samples)
            wanted = declared["per_layer"]
        else:
            metrics, extra = end_to_end(samples)
            wanted = declared["end_to_end"]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    host = host_record(samples)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "host": host,
              "working_set": working_set(samples, host["cache_bytes"]),
              "attempted": samples["attempted"], "failed": samples["failed"],
              "failures": samples["failures"],
              "campaign_wall_s": [r["wall_s"] for r in samples.get("campaigns", [])],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()}}
    reports = os.path.join(BUILD_DIR, "reports")
    os.makedirs(reports, exist_ok=True)
    with open(os.path.join(reports, "%s-seed%d-trace%d%s.json" % (
            args.workload, args.seed, args.trace, "-" + args.scale if args.scale else "")),
            "w") as f:
        json.dump(record, f, indent=2)

    print("%s seed=%d trace=%d  host: %s, nproc %s, caches %s, %s %s" % (
        args.workload, args.seed, args.trace, host["cpu_model"], host["nproc"],
        host["cache_bytes"], host.get("compiler"), host.get("build_type")))
    print("  working set (computed): %s" % record["working_set"])
    for failure in samples["failures"]:
        print("  CHECK FAILED: " + failure)
    for name, (value, unit) in list(metrics.items()) + list(extra.items()):
        print("  %-28s %.6g %s" % (name, value, unit))

    result = {}
    for entry in wanted:
        value, unit = metrics[entry["name"]]
        if unit != entry["unit"]:
            raise RuntimeError("metric %s has unit %s, BENCHMARK.json says %s"
                               % (entry["name"], unit, entry["unit"]))
        result[entry["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": samples["failed"] == 0,
                      "attempted": samples["attempted"],
                      "failed": samples["failed"], "metrics": result}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception as failure:  # noqa: BLE001 - report and exit non-zero
        print("perfbench: %s" % failure, file=sys.stderr)
        sys.exit(1)
