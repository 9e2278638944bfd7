"""``python -m bench compare A.json B.json``: B against A, by the bounds.

One row per (end-to-end metric, workload).  ``worse``: B's median is worse
than A's by more than the metric's bound.  ``unresolved``: either set's own
run-to-run spread (inter-quartile distance over the median) is wider than the
bound, so the comparison cannot tell — unless every run of B reads better
than every run of A.  Exit status is non-zero when any row is ``worse``.
Comparing a file with itself prints the spread table of that set of runs.
"""

from __future__ import annotations

import json
from statistics import median
from typing import Dict, List, Tuple

from .stats import spread


def load_runs(path: str) -> Dict[Tuple[str, str], List[float]]:
    """``{(workload, metric): values}`` from the untraced runs of a results file."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    values: Dict[Tuple[str, str], List[float]] = {}
    for run in data["runs"]:
        if run.get("trace"):
            continue
        for name, metric in run["metrics"].items():
            values.setdefault((run["workload"], name), []).append(metric["value"])
    return values


def verdict(a: List[float], b: List[float], better: str, bound: float) -> Tuple[str, float]:
    """``(ok | worse | unresolved, share by which B is worse than A)``."""
    lower = better == "lower"
    base = median(a)
    change = (median(b) - base) / abs(base) if base else 0.0
    worse_by = change if lower else -change
    if max(spread(a), spread(b)) > bound:
        if (max(b) < min(a)) if lower else (min(b) > max(a)):
            return "ok", worse_by  # every run of B beats every run of A
        return "unresolved", worse_by
    return ("worse" if worse_by > bound else "ok"), worse_by


def main(argv: List[str], benchmark: Dict) -> int:
    if len(argv) != 2:
        print("usage: python -m bench compare A.json B.json")
        return 2
    a_runs, b_runs = load_runs(argv[0]), load_runs(argv[1])
    status = 0
    print(f"{'workload':12s} {'metric':20s} {'A median':>11s} {'B median':>11s} "
          f"{'A spread':>8s} {'B spread':>8s} {'worse by':>8s} {'bound':>5s}  verdict")
    for workload in [w["name"] for w in benchmark["workloads"]]:
        for spec in benchmark["end_to_end"]:
            name, bound = spec["name"], spec["bound"]
            a, b = a_runs.get((workload, name)), b_runs.get((workload, name))
            if not a or not b:
                print(f"{workload:12s} {name:20s} missing from "
                      f"{argv[0] if not a else argv[1]}")
                status = 1
                continue
            word, worse_by = verdict(a, b, spec["better"], bound)
            if word == "worse":
                status = 1
            print(f"{workload:12s} {name:20s} {median(a):11.5g} {median(b):11.5g} "
                  f"{spread(a):8.1%} {spread(b):8.1%} {worse_by:+8.1%} {bound:5.2f}  "
                  f"{word}  (n={len(a)}/{len(b)})")
    return status
