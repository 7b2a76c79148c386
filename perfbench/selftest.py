#!/usr/bin/env python3
"""Self-test of the campaign benchmark at tiny sizes (under a minute once built).

    python3 perfbench/selftest.py

Checks BENCHMARK.json against its format rules (names, units, bounds), then
runs every harness workload with --trace 0 and --trace 1 at --scale tiny and
checks that the last output line carries exactly the metrics BENCHMARK.json
names, each with its declared unit and a finite value, that the output checks
pass, and that the traced per-layer split adds up to the traced wall time
with no negative term and with the worker spans inside lanes x the executor
call's time. It also checks that README.md documents every declared metric,
so names cannot drift.
"""

import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
sys.dont_write_bytecode = True  # importing run.py must not write into the tree
sys.path.insert(0, HERE)
from run import BUILD_DIR, SPLIT, SPLIT_TOLERANCE_S, WORKLOADS  # noqa: E402


def fail(message):
    print("SELFTEST FAILED: " + message)
    sys.exit(1)


def check_declaration(declared):
    expected = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(declared) != expected:
        fail("BENCHMARK.json keys %s" % sorted(declared))
    names = set()
    for group in ("workloads", "end_to_end", "per_layer"):
        for entry in declared[group]:
            if not NAME.match(entry["name"]) or entry["name"] in names:
                fail("bad or repeated name %r" % entry["name"])
            names.add(entry["name"])
            if group != "workloads" and not UNIT.match(entry["unit"]):
                fail("bad unit %r" % entry["unit"])
    if not 2 <= len(declared["workloads"]) <= 8:
        fail("2 to 8 workloads")
    for entry in declared["end_to_end"]:
        if set(entry) != {"name", "unit", "better", "bound"} or not 0 < entry["bound"] <= 0.25:
            fail("end_to_end entry %s" % entry)
    setup = [e for e in declared["end_to_end"] if e["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower" or \
            setup[0]["bound"] != max(e["bound"] for e in declared["end_to_end"]):
        fail("setup_s must be declared in s, lower, with the largest bound")
    for entry in declared["per_layer"]:
        if set(entry) != {"name", "unit", "better"}:
            fail("per_layer entry %s" % entry)
    with open(os.path.join(HERE, "README.md")) as f:
        notes = f.read()
    for entry in declared["end_to_end"] + declared["per_layer"] + declared["workloads"]:
        if "`%s`" % entry["name"] not in notes:
            fail("README.md does not document %s" % entry["name"])


def run(workload, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        fail("%s trace %d exited %d:\n%s" % (workload, trace, done.returncode, done.stderr[-2000:]))
    return done.stdout.strip().splitlines()[-1]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    check_declaration(declared)
    for workload in WORKLOADS:  # every harness workload, declared or not
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            result = json.loads(run(workload, trace))
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail("%s: result keys %s" % (workload, sorted(result)))
            if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
                fail("%s trace %d: output checks failed: %s" % (workload, trace, result))
            wanted = {e["name"]: e["unit"] for e in declared[group]}
            got = result["metrics"]
            if set(got) != set(wanted):
                fail("%s trace %d: metrics %s, declared %s" % (
                    workload, trace, sorted(got), sorted(wanted)))
            for name, unit in wanted.items():
                value = got[name]["value"]
                if got[name]["unit"] != unit or not isinstance(value, (int, float)) \
                        or not math.isfinite(value):
                    fail("%s: metric %s = %s" % (workload, name, got[name]))
            if trace == 1:
                parts = sum(got[name]["value"] for name in SPLIT)
                wall = got["traced_wall_s"]["value"]
                if abs(parts - wall) > 1e-6 * max(1.0, wall):
                    fail("%s: split sums to %g, traced wall %g" % (workload, parts, wall))
                negative = [n for n in SPLIT if got[n]["value"] < -SPLIT_TOLERANCE_S]
                if negative:
                    fail("%s: negative split terms %s" % (workload, negative))
                with open(os.path.join(BUILD_DIR, "reports",
                                       "%s-seed3-trace1-tiny.json" % workload)) as f:
                    extra = json.load(f)["extra"]
                if extra["worker_span_s"]["value"] > \
                        extra["lane_s"]["value"] + SPLIT_TOLERANCE_S:
                    fail("%s: worker spans exceed lanes x execute_s: %s" % (workload, extra))
            print("ok  %-13s trace %d  %d metrics" % (workload, trace, len(got)))
    print("selftest passed")


if __name__ == "__main__":
    main()
