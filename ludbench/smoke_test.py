#!/usr/bin/env python3
"""Smoke test of the lud benchmark at tiny sizes.

    python3 ludbench/smoke_test.py

Run it from the root of a checkout (it builds through ludbench/run.py).
It checks that

  - every workload's untraced run emits exactly BENCHMARK.json's
    end-to-end metrics, and its traced run exactly the per-layer metrics,
    each by name with its unit, and that all output checks pass;
  - a deliberately corrupted digest (--corrupt-digest) is counted as a
    failed check, and the run exits non-zero with "correct": false;
  - malformed seed, size and length arguments are refused with a
    diagnostic and exit code 2, before anything runs.

Exits 0 when every check holds; prints each violation otherwise.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TINY = ["--seconds", "1", "--size", "2"]
problems = []


def run(args):
    cmd = [sys.executable, os.path.join(ROOT, "ludbench", "run.py")] + args
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)


def result_of(done, what):
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        problems.append(f"{what}: last line is not a JSON result")
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{what}: result keys are {sorted(result)}")
    return result


def check_metrics(done, result, expected, what):
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    if got != want:
        problems.append(f"{what}: metrics {got} differ from {want}")
    printed = set()
    for line in done.stdout.splitlines():
        parts = line.split()
        if len(parts) >= 5 and parts[0] == "metric" and parts[2] == "=":
            printed.add((parts[1], parts[4]))
    for name, unit in want.items():
        if (name, unit) not in printed:
            problems.append(f"{what}: no 'metric {name} = <value> {unit}' "
                            "line")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        name = w["name"]
        for trace, expected in (("0", spec["end_to_end"]),
                                ("1", spec["per_layer"])):
            what = f"{name} --trace {trace}"
            done = run(["--workload", name, "--seed", "7", "--trace", trace]
                       + TINY)
            result = result_of(done, what)
            if result is None:
                continue
            if done.returncode != 0 or not result["correct"] or \
                    result["failed"] or result["attempted"] < 1:
                problems.append(f"{what}: exit {done.returncode}, "
                                f"result {result}\n{done.stderr[-2000:]}")
            check_metrics(done, result, expected, what)

        what = f"{name} --corrupt-digest"
        done = run(["--workload", name, "--seed", "7", "--trace", "0",
                    "--corrupt-digest"] + TINY)
        result = result_of(done, what)
        if result is not None and (done.returncode == 0 or
                                   result["correct"] or
                                   result["failed"] == 0):
            problems.append(f"{what}: corruption not counted as a failure "
                            f"(exit {done.returncode}, result {result})")

    for bad in (["--seed", "12abc"], ["--seed", ""], ["--seed", "-1"],
                ["--seed", "18446744073709551616"], ["--size", "0"],
                ["--size", "101"], ["--size", "5x"], ["--seconds", "0"],
                ["--trace", "2"]):
        seed = [] if bad[0] == "--seed" else ["--seed", "1"]
        done = run(["--workload", "deep"] + seed + bad)
        if done.returncode != 2 or bad[0] not in done.stderr or \
                '"correct"' in done.stdout:
            problems.append(f"arguments {bad}: exit {done.returncode}, "
                            f"stderr {done.stderr.strip()[-300:]!r}")

    for p in problems:
        print("FAIL", p)
    print("smoke test:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
