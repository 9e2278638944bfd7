#!/usr/bin/env python3
"""Search-and-rescue robot — motion planner vs history predictor.

The paper's second motivating application: an autonomous robot explores a
field, periodically querying surrounding sensors for hazard levels.  A
robot *plans* its motion, so profiles can be handed to MobiQuery ahead of
time (positive advance time Ta); a human-carried proxy must *predict*
motion from GPS history (negative Ta, plus location error).

This example runs the same mission twice — once with planner profiles
(Ta = +10 s) and once with a GPS-error history predictor — and compares
the service quality, reproducing the paper's Section 6.3 message: advance
knowledge buys near-perfect service; prediction still works, at a cost.

Run:
    python examples/rescue_robot.py
"""

import os

from repro.api.config import paper_section63_config
from repro.experiments.runner import run_experiment

#: override for quick smoke runs (CI examples-smoke)
DURATION_S = float(os.environ.get("REPRO_EXAMPLE_DURATION", "240"))
CHANGE_INTERVAL_S = 70.0


def describe(label: str, result) -> None:
    metrics = result.metrics
    print(f"\n--- {label} ---")
    print(f"success ratio        : {metrics.success_ratio():.1%}")
    print(f"mean data fidelity   : {metrics.mean_fidelity():.1%}")
    print(f"deadline-met ratio   : {metrics.deadline_ratio():.1%}")
    mean_err = sum(r.prediction_error_m for r in metrics.records) / len(metrics.records)
    print(f"mean prediction error: {mean_err:.1f} m")
    low = [r.k for r in metrics.records if r.fidelity < 0.95]
    print(f"below-bar periods    : {len(low)} of {metrics.num_periods}")


def main() -> None:
    print("Mission: query hazard levels every 2 s within 150 m, "
          f"for {DURATION_S:.0f} s; motion changes every {CHANGE_INTERVAL_S:.0f} s.")

    print("\n[1/2] Robot with a motion planner (profiles 10 s in advance)...")
    planner_result = run_experiment(
        paper_section63_config(
            sleep_period_s=9.0,
            change_interval_s=CHANGE_INTERVAL_S,
            advance_time_s=10.0,
            seed=42,
            duration_s=DURATION_S,
        )
    )
    describe("motion planner, Ta = +10 s", planner_result)

    print("\n[2/2] Human-carried proxy with GPS-history prediction "
          "(10 m fixes, 8 s sampling)...")
    predictor_result = run_experiment(
        paper_section63_config(
            sleep_period_s=9.0,
            change_interval_s=CHANGE_INTERVAL_S,
            gps_error_m=10.0,
            seed=42,
            duration_s=DURATION_S,
        )
    )
    describe("history predictor, GPS error <= 10 m", predictor_result)

    gain = (
        planner_result.metrics.success_ratio()
        - predictor_result.metrics.success_ratio()
    )
    print(f"\nAdvance knowledge bought {gain:+.1%} success ratio — the paper's")
    print("Section 6.3 conclusion: MobiQuery exploits early profiles when it")
    print("can, and degrades gracefully under late, noisy prediction.")


if __name__ == "__main__":
    main()
