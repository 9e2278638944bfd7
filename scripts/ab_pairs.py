"""Alternating parent/change pairs of perf-ledger workloads.

    python3 scripts/ab_pairs.py --ref <commit> --workload churn-mix [dense48 ...] [--pairs 10] [--layers]

Clones ``--ref`` once into a temporary directory (honours ``TMPDIR``) and
runs, for each workload in turn and seeds 1..pairs, ``python3 -m bench
--workload W --seed S --seconds 15 --trace 0`` (the seconds are
``BENCHMARK.json``'s ``run_seconds``) once in the clone (parent) and once in
this checkout (change), alternating which side goes first.  Per workload,
for every end-to-end metric of ``BENCHMARK.json``, it prints both medians
and quartiles, the pairs the change won, and the verdict of the acceptance
rule: a gain (or a loss) is claimed only when one side wins at least nine
tenths of the pairs, ties counting for neither, and the medians differ by
more than the distance between the parent's quartiles; anything else that
moved is "unresolved".  A loss is set against the metric's regression bound.

With ``--layers`` each workload's table is followed by where the difference
sits: one ``--trace 1`` run per side at seed 1, and every per-layer
``self_s`` / ``calls`` metric of ``BENCHMARK.json`` that moved by more than
5 % between them (parent, change, delta; layers under a millisecond of self
time on both sides are left out).  One profiled unit per side: read it for
which layers moved and by roughly how much, not as a timing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(
    checkout: str, workload: str, seed: int, seconds: int, trace: bool = False
) -> Dict:
    """One bench run in ``checkout``; its last stdout line is the result."""
    done = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1" if trace else "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    if done.returncode != 0:
        sys.exit(f"ab_pairs: bench failed in {checkout} (seed {seed}):\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def verdict(
    parent: List[float], change: List[float], higher_is_better: bool, bound: float
) -> str:
    """Median, quartiles, pairs won and the verdict, as one line.

    ``bound`` is the share of the parent median ``BENCHMARK.json`` lets the
    metric worsen by; a resolved loss says which side of it it fell.
    """
    sign = 1.0 if higher_is_better else -1.0
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    lost = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p_mid, c_mid = statistics.median(parent), statistics.median(change)
    p_q1, _, p_q3 = statistics.quantiles(parent, n=4)
    c_q1, _, c_q3 = statistics.quantiles(change, n=4)
    gap = sign * (c_mid - p_mid)
    need = 0.9 * len(parent)
    if not won and not lost:
        word = "equal on every pair"
    elif abs(gap) <= p_q3 - p_q1:
        word = "unresolved (gap inside the parent's inter-quartile spread)"
    elif gap > 0 and won >= need:
        word = "GAIN"
    elif gap < 0 and lost >= need:
        side = "inside" if -gap <= bound * abs(p_mid) else "BEYOND"
        word = f"LOSS ({side} the {bound:.0%} regression bound)"
    else:
        word = "unresolved (fewer than nine tenths of the pairs agree)"
    change_pct = f"{(c_mid - p_mid) / p_mid:+.1%}" if p_mid else "n/a"
    return (
        f"parent {p_mid:.6g} [{p_q1:.6g} .. {p_q3:.6g}]  "
        f"change {c_mid:.6g} [{c_q1:.6g} .. {c_q3:.6g}]  {change_pct}  "
        f"won {won}/{len(parent)}, lost {lost}  -> {word}"
    )


def run_pairs(
    checkouts: Dict[str, str], workload: str, pairs: int, seconds: int
) -> Dict[str, List[Dict]]:
    """Seeds 1..pairs of ``workload`` on both sides, the first side alternating."""
    runs: Dict[str, List[Dict]] = {"parent": [], "change": []}
    for seed in range(1, pairs + 1):
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(checkouts[side], workload, seed, seconds))
        row = "  ".join(
            f"{side} {runs[side][-1]['metrics']['sim_s_per_busy_s']['value']:.2f}"
            for side in ("parent", "change")
        )
        print(f"{workload} seed {seed}: sim_s_per_busy_s {row}", flush=True)
    return runs


def report(workload: str, runs: Dict[str, List[Dict]], metrics: List[Dict], ref: str) -> None:
    """The verdict table of one workload."""
    print(f"\n{workload}: {len(runs['parent'])} alternating pairs against {ref}")
    for metric in metrics:
        name = metric["name"]
        values = {
            side: [run["metrics"][name]["value"] for run in runs[side]] for side in runs
        }
        line = verdict(
            values["parent"], values["change"], metric["better"] == "higher",
            metric["bound"],
        )
        print(f"  {name:18s} {line}")
    for side in runs:
        bad = [
            seed for seed, run in enumerate(runs[side], 1)
            if not run["correct"] or run["failed"]
        ]
        print(f"  {side}: {'every run correct, 0 failed' if not bad else f'FAILED seeds {bad}'}")
    print(flush=True)


def report_layers(
    workload: str, checkouts: Dict[str, str], metrics: List[Dict], seconds: int
) -> None:
    """Per-layer ``self_s`` / ``calls`` that differ by more than 5 % between
    one traced run of each side at seed 1."""
    traced = {
        side: run_once(checkouts[side], workload, 1, seconds, trace=True)["metrics"]
        for side in ("parent", "change")
    }
    print(f"{workload}: per-layer self_s / calls that moved by more than 5 % "
          f"(one --trace 1 run per side, seed 1)")
    for metric in metrics:
        name = metric["name"]
        if not name.endswith((".self_s", ".calls")):
            continue
        parent = traced["parent"][name]["value"]
        change = traced["change"][name]["value"]
        if abs(change - parent) <= 0.05 * abs(parent):
            continue
        if name.endswith(".self_s") and max(parent, change) < 1e-3:
            continue  # a layer of microseconds moves by tens of % between any two runs
        delta = f"{(change - parent) / parent:+.1%}" if parent else "new"
        print(f"  {name:24s} parent {parent:<12.6g} change {change:<12.6g} {delta}")
    print(flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ref", required=True, help="parent commit to compare against")
    parser.add_argument(
        "--workload", required=True, nargs="+",
        help="one or more bench workloads, run in turn against one clone of REF",
    )
    parser.add_argument("--pairs", type=int, default=10, help="seeds 1..PAIRS (default 10)")
    parser.add_argument("--seconds", type=int, help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--out", help="also write every run's metrics here as JSON")
    parser.add_argument(
        "--layers", action="store_true",
        help="after each table, the per-layer metrics that moved (one traced run per side)",
    )
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 (quartiles need two runs)")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    seconds = args.seconds or benchmark["run_seconds"]

    runs: Dict[str, Dict[str, List[Dict]]] = {}
    with tempfile.TemporaryDirectory(prefix="ab_pairs_") as parent_dir:
        for command in (["git", "clone", "-q", ROOT, parent_dir],
                        ["git", "-C", parent_dir, "checkout", "-q", args.ref]):
            subprocess.run(command, check=True)
        checkouts = {"parent": parent_dir, "change": ROOT}
        for workload in args.workload:
            runs[workload] = run_pairs(checkouts, workload, args.pairs, seconds)
            # each table as soon as its workload is through: a later
            # workload failing does not cost the ones already measured
            report(workload, runs[workload], benchmark["end_to_end"], args.ref)
            if args.layers:
                report_layers(workload, checkouts, benchmark["per_layer"], seconds)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"ref": args.ref, "workloads": runs}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
