#!/usr/bin/env python3
"""Interleaved A/B comparison of two source trees on the lud benchmark.

    python3 ludbench/ab.py BASE_TREE CHANGE_TREE [--pairs 10]
        [--workloads deep,wide,serve,optimize] [--seconds S]
        [--first-seed 1] [--held-out-seed 1000003]

Each tree is a checkout holding ludbench/ and BENCHMARK.json; each builds
its own ludbench binary (ludbench/run.py) from its own sources. Per
workload the script runs --pairs pairs of (base, change) with the same
seed, alternating which side runs first, plus one pair at a held-out seed
that takes no part in the verdict. For every end-to-end metric of the base
tree's BENCHMARK.json it prints each side's median and quartiles and a
verdict:

  gain        the change wins at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the base's own
              quartile spread;
  regression  the change's median is worse than the base's by more than
              the metric's bound;
  unresolved  either side's quartile spread, as a share of its median,
              exceeds the bound, unless every change run beats every base
              run ("better in every run");
  unchanged   none of the above.

The held-out pair is shown beside each row; a gain that does not also hold
there is flagged. Exit status: 0 when no metric regressed and no run
failed, 1 otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from run import build_dir  # noqa: E402


def run_once(tree, workload, seed, seconds):
    cmd = [sys.executable, os.path.join("ludbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: {workload} seed {seed} exited "
                           f"{done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{tree}: {workload} seed {seed} failed "
                           f"{result['failed']} of {result['attempted']}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(values):
    return tuple(statistics.quantiles(values, n=4))


def better(a, b, direction):
    """True when a is strictly better than b."""
    return a < b if direction == "lower" else a > b


def verdict(metric, base, change):
    bound, direction = metric["bound"], metric["better"]
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    wins = sum(better(c, b, direction) for b, c in zip(base, change))
    spread_b = (bq3 - bq1) / bmed if bmed else float("inf")
    spread_c = (cq3 - cq1) / cmed if cmed else float("inf")
    worse_by = ((cmed - bmed) if direction == "lower" else
                (bmed - cmed)) / bmed if bmed else 0.0
    if wins >= 0.9 * len(base) and better(cmed, bmed, direction) and \
            abs(cmed - bmed) > (bq3 - bq1):
        return "gain", wins
    if max(spread_b, spread_c) > bound:
        if all(better(c, b, direction) for c in change for b in base):
            return "better in every run", wins
        return "unresolved", wins
    if worse_by > bound:
        return "regression", wins
    return "unchanged", wins


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=int, default=0)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--held-out-seed", type=int, default=1000003)
    args = ap.parse_args()
    if args.pairs < 10:
        ap.error("--pairs must be at least 10")

    # Each side must build and run its own sources; a shared build
    # directory would compare one tree with itself.
    dirs = {build_dir(os.path.abspath(t)) for t in (args.base, args.change)}
    if len(dirs) != 2:
        ap.error("the two trees share a build directory; give two checkouts")

    with open(os.path.join(args.base, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in spec["workloads"]])
    metrics = spec["end_to_end"]

    bad = False
    for workload in workloads:
        runs = {"base": [], "change": []}
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
            for side in order:
                tree = args.base if side == "base" else args.change
                runs[side].append(run_once(tree, workload, seed, seconds))
            print(f"{workload}: pair {i + 1}/{args.pairs} done",
                  file=sys.stderr)
        held = {side: run_once(args.base if side == "base" else args.change,
                               workload, args.held_out_seed, seconds)
                for side in ("change", "base")}

        print(f"\n== {workload} ({args.pairs} pairs, {seconds} s runs, "
              f"held-out seed {args.held_out_seed})")
        print(f"{'metric':<24} {'base median [q1, q3]':>32} "
              f"{'change median [q1, q3]':>32} {'wins':>6} "
              f"{'held-out':>9}  verdict")
        for m in metrics:
            name = m["name"]
            base = [r[name] for r in runs["base"]]
            change = [r[name] for r in runs["change"]]
            v, wins = verdict(m, base, change)
            bq1, bmed, bq3 = quartiles(base)
            cq1, cmed, cq3 = quartiles(change)
            hb, hc = held["base"][name], held["change"][name]
            held_ok = better(hc, hb, m["better"])
            note = ""
            if v == "gain" and not held_ok:
                note = " (not confirmed on the held-out seed)"
            bad |= v == "regression"
            b_col = f"{bmed:.5g} [{bq1:.5g}, {bq3:.5g}]"
            c_col = f"{cmed:.5g} [{cq1:.5g}, {cq3:.5g}]"
            held_pct = (hc - hb) / hb * 100 if hb else 0.0
            print(f"{name:<24} {b_col:>32} {c_col:>32} "
                  f"{wins:>3}/{args.pairs:<2} {held_pct:>+8.1f}%  {v}{note}")
    return 1 if bad else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except RuntimeError as err:
        print(f"ab.py: {err}", file=sys.stderr)
        sys.exit(1)
