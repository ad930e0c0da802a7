#!/usr/bin/env python3
"""Compares a change's benchmark runs against its parent's.

    python3 benchmark/compare.py parent.json change.json

Each file is a series written by `run.py --out FILE` (a JSON list of
end-to-end results, trace 0). Record i of one workload in the parent
series is paired with record i of that workload in the change series;
paired records must use the same seed. Run the pairs alternately
(parent, change, change, parent, ...): at least 10 pairs per workload.

For every end-to-end metric of BENCHMARK.json and every workload:
  * simulated metrics are deterministic per seed, so they are compared
    pair by pair, exactly;
  * host metrics: the change wins when it reads better in at least 9 of
    10 pairs (ties count for neither side) and the medians differ by
    more than the parent's interquartile range. It regresses when its
    median is worse than the parent's by more than the metric's bound.
    When the parent's own spread exceeds the bound the result is
    "unresolved", unless every change run beats every parent run.
The exit code is 1 if any metric regressed, any check failed on the
change side, or the series cannot be paired.
"""

import json
import os
import statistics
import sys

SIMULATED = {"frame_p50_cycles", "frame_p99_cycles", "frames_per_sim_s"}
MIN_PAIRS = 10


def load_series(path):
    with open(path) as f:
        records = json.load(f)
    by_workload = {}
    for rec in records:
        if rec["stamp"]["trace"] == 0 and not rec["stamp"]["quick"]:
            by_workload.setdefault(rec["workload"], []).append(rec)
    return by_workload


def compare_simulated(better, parent, change):
    """Exact, pair by pair: the same seed must give the same value unless
    the change moved it."""
    wins = sum(1 for a, b in zip(parent, change) if better(b, a))
    losses = sum(1 for a, b in zip(parent, change) if better(a, b))
    if wins == 0 and losses == 0:
        return "identical", False
    verdict = f"moved: better in {wins}, worse in {losses} of {len(parent)} pairs"
    if losses == 0 and wins * 10 >= 9 * len(parent):
        verdict = "WIN (exact) " + verdict
    return verdict, losses > 0


def compare_host(metric, better, parent, change):
    bound = metric["bound"]
    lower = metric["better"] == "lower"
    wins = sum(1 for a, b in zip(parent, change) if better(b, a))
    pq1, pmed, pq3 = statistics.quantiles(parent, n=4)
    cmed = statistics.median(change)
    iqr = pq3 - pq1
    worse_by = (cmed - pmed) / pmed if lower else (pmed - cmed) / pmed
    if wins * 10 >= 9 * len(parent) and abs(cmed - pmed) > iqr:
        return f"WIN: better in {wins}/{len(parent)} pairs", False
    if iqr / pmed > bound:
        every = all(better(b, a) for a in parent for b in change)
        return ("better in every run" if every else
                f"unresolved: parent spread {iqr / pmed:.1%} > bound "
                f"{bound:.0%}"), False
    if worse_by > bound:
        return f"REGRESSION: median worse by {worse_by:.1%} > {bound:.0%}", True
    direction = "worse" if worse_by > 0 else "better"
    return f"no regression (median {abs(worse_by):.1%} {direction})", False


def alternates(pairs):
    firsts = [a["stamp"]["started"] < b["stamp"]["started"] for a, b in pairs]
    return all(x != y for x, y in zip(firsts, firsts[1:]))


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    parent, change = load_series(sys.argv[1]), load_series(sys.argv[2])
    failed = False
    for workload in sorted(set(parent) | set(change)):
        pairs = list(zip(parent.get(workload, []), change.get(workload, [])))
        print(f"== {workload}: {len(pairs)} pairs")
        if len(pairs) < MIN_PAIRS:
            print(f"   too few pairs (need {MIN_PAIRS})")
            failed = True
            continue
        if any(a["stamp"]["seed"] != b["stamp"]["seed"] for a, b in pairs):
            print("   paired runs use different seeds")
            failed = True
            continue
        if not alternates(pairs):
            print("   warning: the pairs did not alternate which side ran first")
        bad = sum(b["failed"] for _, b in pairs) + \
            sum(not b["correct"] for _, b in pairs)
        if bad:
            print(f"   change side: {bad} failed checks or incorrect runs")
            failed = True
        for metric in metrics:
            name = metric["name"]
            p = [float(a["metrics"][name]["value"]) for a, _ in pairs]
            c = [float(b["metrics"][name]["value"]) for _, b in pairs]
            if metric["better"] == "lower":
                better = float.__lt__
            else:
                better = float.__gt__
            if name in SIMULATED:
                verdict, regressed = compare_simulated(better, p, c)
            else:
                verdict, regressed = compare_host(metric, better, p, c)
            failed |= regressed
            pq1, pmed, pq3 = statistics.quantiles(p, n=4)
            cq1, cmed, cq3 = statistics.quantiles(c, n=4)
            print(f"   {name:18s} parent {pmed:.6g} [{pq1:.6g}, {pq3:.6g}]  "
                  f"change {cmed:.6g} [{cq1:.6g}, {cq3:.6g}]  {verdict}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
