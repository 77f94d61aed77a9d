#!/usr/bin/env python3
"""Smoke test of the benchmark.

    python3 perfbench/test_smoke.py

Runs every workload for a few hundred calls in both modes
(run.py --smoke) and checks that each run is correct and emits exactly
the metrics BENCHMARK.json names for its mode, each finite and with the
declared unit.  Exits nonzero on the first failure.
"""

import json
import math
import os
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    workloads = [w["name"] for w in spec["workloads"]]
    out = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=600)
    lines = out.stdout.splitlines()
    errors = []
    if out.returncode != 0:
        errors.append("run.py --smoke exited %d" % out.returncode)
        errors += [l for l in lines if "PROBLEM" in l]
    # each run prints its provenance line, its report and its result
    runs = []
    for line in lines:
        if line.startswith('{"provenance"'):
            runs.append([json.loads(line)["provenance"], None])
        elif line.startswith('{"correct"') and runs:
            runs[-1][1] = json.loads(line)
    seen = set()
    for prov, result in runs:
        key = (prov["workload"], prov["trace"])
        seen.add(key)
        if result is None:
            errors.append("%s trace=%d: no result line" % key)
            continue
        if not result["correct"] or result["failed"] != 0:
            errors.append("%s trace=%d: run not correct" % key)
        got = result["metrics"]
        want = wanted[prov["trace"]]
        if set(got) != set(want):
            errors.append("%s trace=%d: metrics differ from BENCHMARK.json: "
                          "missing %s, extra %s"
                          % (key + (sorted(set(want) - set(got)),
                                    sorted(set(got) - set(want)))))
        for name, m in got.items():
            if not isinstance(m.get("value"), (int, float)) or \
                    not math.isfinite(m["value"]):
                errors.append("%s trace=%d: %s is not finite" % (key + (name,)))
            if name in want and m.get("unit") != want[name]:
                errors.append("%s trace=%d: %s has unit %r, expected %r"
                              % (key + (name, m.get("unit"), want[name])))
    for w in workloads:
        for trace in (0, 1):
            if (w, trace) not in seen:
                errors.append("%s trace=%d: not run" % (w, trace))
    for e in errors:
        print("FAIL " + e)
    if errors:
        sys.exit(1)
    print("ok: %d runs, every metric emitted, finite and with its unit"
          % len(runs))


if __name__ == "__main__":
    main()
