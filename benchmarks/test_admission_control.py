"""Admission control under saturation — worst-user quality vs open door.

At N=16 simultaneous arrivals the shared medium is past its knee: every
session's deadlines phase-lock, report storms collide, and the *minimum*
per-user success ratio collapses well below the mean (see
``test_multiuser_scaling.py``).  This benchmark measures what the service
can do about it now that admission is a first-class policy:

* **accept-all** — the open service; every user is admitted into the
  storm.
* **per-area-cap** — sessions whose query area would overlap too many
  live sessions are rejected at submit time; the users the service *does*
  take keep their quality (spatial load shedding).
* **phase-assign** — everyone is admitted but the server offsets each
  session's start across phase slots, de-synchronising the deadline
  bursts without rejecting anyone.

The pinned expectation (the PR's acceptance bar): per-area-cap improves
the admitted fleet's minimum success ratio over accept-all at N=16.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.api import ScenarioSpec, run_scenario
from repro.experiments.figures import SCALE_PAPER, bench_scale
from repro.experiments.reporting import format_table

#: fleet-sized query areas (see test_multiuser_scaling.FLEET_RADIUS_M)
FLEET_RADIUS_M = 60.0
NUM_USERS = 16


@dataclass(frozen=True)
class AdmissionRow:
    """One policy's measured outcome at N=16."""

    policy: str
    admitted: int
    rejected: int
    mean_success: float
    min_success: float
    frames_collided: int


def _run_policy(admission: Dict, duration_s: float, seed: int) -> AdmissionRow:
    result = run_scenario(
        ScenarioSpec(
            name=f"burst-{admission.get('policy', 'accept-all')}",
            seed=seed,
            duration_s=duration_s,
            admission=admission,
            requests=(
                # a simultaneous burst: the phase-locking worst case
                {
                    "radius_m": FLEET_RADIUS_M,
                    "period_s": 2.0,
                    "freshness_s": 1.0,
                    "count": NUM_USERS,
                    "arrival": "simultaneous",
                },
            ),
        )
    )
    return AdmissionRow(
        policy=admission.get("policy", "accept-all"),
        admitted=result.admitted,
        rejected=result.rejected,
        mean_success=result.mean_success,
        min_success=result.min_success,
        frames_collided=result.frames_collided,
    )


def run_admission_comparison(scale: Optional[str] = None) -> List[AdmissionRow]:
    scale = scale or bench_scale()
    duration = 240.0 if scale == SCALE_PAPER else 90.0
    seed = 1
    return [
        _run_policy({}, duration, seed),
        _run_policy({"policy": "per-area-cap", "max_overlapping": 3}, duration, seed),
        _run_policy({"policy": "phase-assign", "slots": 4}, duration, seed),
    ]


def test_per_area_cap_improves_worst_user(once, emit):
    rows = once(run_admission_comparison)
    emit(format_table(
        f"Admission control at N={NUM_USERS} (simultaneous burst)",
        ["policy", "admitted", "rejected", "mean", "min", "collisions"],
        [
            (
                r.policy,
                r.admitted,
                r.rejected,
                f"{r.mean_success:.3f}",
                f"{r.min_success:.3f}",
                r.frames_collided,
            )
            for r in rows
        ],
    ))
    by_name = {r.policy: r for r in rows}
    accept_all = by_name["accept-all"]
    capped = by_name["per-area-cap"]
    phased = by_name["phase-assign"]
    # the open door admits everyone; the cap genuinely sheds load
    assert accept_all.admitted == NUM_USERS
    assert 1 <= capped.admitted < NUM_USERS
    assert phased.admitted == NUM_USERS
    # the acceptance bar: spatial load shedding lifts the worst admitted
    # user measurably above the open-door worst user
    assert capped.min_success >= accept_all.min_success + 0.02
    # and the admitted fleet's mean does not pay for it
    assert capped.mean_success >= accept_all.mean_success - 0.02
    # phase assignment helps everyone without rejecting anyone
    assert phased.min_success >= accept_all.min_success
