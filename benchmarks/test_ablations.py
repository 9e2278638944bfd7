"""Ablations of this reproduction's design choices (DESIGN.md §4).

Not a paper figure — these benches justify two implementation decisions by
measuring what happens without them:

* **PSM setup redelivery**: buffered setups stay pending across beacon
  windows until their period expires.  One-shot delivery starves sleepers
  whose only window broadcast collided, and greedy prefetching collapses
  entirely (its one shot happens during the initial flood storm).
* **Latency margins**: per the paper's remark that MQ-GP's result latency
  "incurs a significant variance" while MQ-JIT is steady, collector
  delivery margins are compared between the schemes.
"""

import statistics
from dataclasses import replace

from repro.api.scenarios import run_scenario
from repro.experiments.figures import bench_scale, paper_section62_config
from repro.experiments.reporting import format_table


def _duration() -> float:
    return 300.0 if bench_scale() == "paper" else 120.0


def run_redelivery_ablation():
    rows = []
    for mode in ("jit", "greedy"):
        for redeliver in (True, False):
            spec = replace(
                paper_section62_config(
                    mode=mode, sleep_period_s=9.0, seed=1, duration_s=_duration()
                ),
                redeliver_setups=redeliver,
            )
            (session,) = run_scenario(spec).workload.sessions
            rows.append(
                (
                    mode,
                    "on" if redeliver else "off",
                    session.metrics.success_ratio(),
                    session.metrics.mean_fidelity(),
                )
            )
    return rows


def test_setup_redelivery_ablation(once, emit):
    rows = once(run_redelivery_ablation)
    emit(
        format_table(
            "Ablation — PSM setup redelivery across beacon windows",
            ["scheme", "redelivery", "success", "fidelity"],
            rows,
        )
    )
    by_key = {(mode, flag): success for mode, flag, success, _ in rows}
    # greedy depends on redelivery hard: its single delivery chance falls
    # into the initial flood storm
    assert by_key[("greedy", "on")] > by_key[("greedy", "off")] + 0.1
    # JIT benefits too (every loss otherwise starves a sleeper for good)
    assert by_key[("jit", "on")] >= by_key[("jit", "off")] - 0.02


def run_parent_upgrade_ablation():
    rows = []
    for seed in (1, 2, 3):
        for upgrade in (True, False):
            spec = replace(
                paper_section62_config(
                    mode="jit", sleep_period_s=9.0, seed=seed, duration_s=_duration()
                ),
                parent_upgrade=upgrade,
            )
            (session,) = run_scenario(spec).workload.sessions
            rows.append(
                (
                    seed,
                    "on" if upgrade else "off",
                    session.metrics.success_ratio(),
                    session.metrics.mean_fidelity(),
                )
            )
    return rows


def test_parent_upgrade_ablation(once, emit):
    """First-sender flood parents occasionally sit *farther* from the
    collector than their children, inverting the eq. (1) sub-deadline order
    and dropping whole subtrees.  Upgrading to the closest heard sender
    removes those losses; without it mean fidelity must not be better."""
    rows = once(run_parent_upgrade_ablation)
    emit(
        format_table(
            "Ablation — parent upgrade in the setup flood (MQ-JIT)",
            ["seed", "upgrade", "success", "fidelity"],
            rows,
        )
    )
    on = statistics.mean(fid for _, flag, _, fid in rows if flag == "on")
    off = statistics.mean(fid for _, flag, _, fid in rows if flag == "off")
    assert on >= off - 0.005
    # and with the upgrade the service is solidly in the paper's band
    on_success = statistics.mean(s for _, flag, s, _ in rows if flag == "on")
    assert on_success >= 0.85
