"""Multi-user scaling — per-user success ratio and wall-clock vs N.

The paper evaluates MobiQuery one mobile user at a time; this benchmark
opens the concurrency axis: 1, 4, 16 and 32 users share one network, one
kernel and one protocol instance, each running an independent query
session (staggered arrivals, fleet-sized query areas).

Expected shape:

* at N=4 every user's success ratio stays within 10 percentage points of
  the single-user baseline — concurrent sessions genuinely coexist;
* beyond that the shared medium saturates gracefully (beacon-window
  setup floods and report bursts from overlapping areas collide), so the
  mean degrades smoothly rather than collapsing;
* wall-clock grows roughly linearly with N (events scale with sessions).

Arrival staggering matters: simultaneous arrivals phase-lock every
session's deadlines, and the aligned report storms cost ~10-20 points of
success ratio at N=4 (measured; see the workload quickstart notes).
"""

import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.api.scenarios import ScenarioSpec, run_scenario
from repro.experiments.figures import SCALE_PAPER, bench_scale
from repro.experiments.reporting import format_table
from repro.workload.arrivals import ARRIVAL_STAGGERED

#: query radius for the fleet runs.  The paper's Rq=150 m covers a third
#: of the 450x450 field per user — 16+ such areas overlap everywhere and
#: only measure saturation.  60 m keeps areas fleet-sized while still
#: spanning dozens of nodes each.
FLEET_RADIUS_M = 60.0

#: stagger between session starts: 2.5 s = one 2 s period plus a
#: quarter-period phase shift, so neighbouring sessions' deadlines
#: interleave instead of phase-locking.
ARRIVAL_SPACING_S = 2.5


@dataclass(frozen=True)
class ScalingRow:
    """One fleet size's measured scaling point."""

    num_users: int
    duration_s: float
    wall_clock_s: float
    success_ratios: Tuple[float, ...]
    mean_success: float
    min_success: float
    mean_fidelity: float
    frames_sent: int
    frames_collided: int
    events_executed: int


def scaling_grid(scale: str) -> Tuple[List[int], float]:
    if scale == SCALE_PAPER:
        return [1, 4, 16, 32], 300.0
    return [1, 4, 16, 32], 120.0


def run_scaling(scale: Optional[str] = None) -> List[ScalingRow]:
    """One shared network per N; all users ride the same kernel run."""
    scale = scale or bench_scale()
    fleet_sizes, duration = scaling_grid(scale)
    rows: List[ScalingRow] = []
    for n in fleet_sizes:
        spec = ScenarioSpec(
            name=f"fleet-{n}",
            seed=1,
            duration_s=duration,
            requests=(
                {
                    "radius_m": FLEET_RADIUS_M,
                    "count": n,
                    "arrival": ARRIVAL_STAGGERED,
                    "spacing_s": ARRIVAL_SPACING_S,
                },
            ),
        )
        started = time.perf_counter()
        result = run_scenario(spec)
        wall = time.perf_counter() - started
        ratios = tuple(result.workload.success_ratios())
        rows.append(
            ScalingRow(
                num_users=n,
                duration_s=duration,
                wall_clock_s=wall,
                success_ratios=ratios,
                mean_success=result.mean_success,
                min_success=result.workload.min_success_ratio(),
                mean_fidelity=result.workload.mean_fidelity(),
                frames_sent=result.frames_sent,
                frames_collided=result.frames_collided,
                events_executed=result.events_executed,
            )
        )
    return rows


def test_multiuser_scaling(once, emit):
    rows = once(run_scaling)
    emit(
        format_table(
            "Multi-user scaling — per-user success and wall-clock vs N "
            f"(staggered {ARRIVAL_SPACING_S} s, Rq={FLEET_RADIUS_M:.0f} m)",
            [
                "users",
                "success mean",
                "success min",
                "fidelity",
                "wall (s)",
                "frames",
                "collided",
            ],
            [
                (
                    r.num_users,
                    f"{r.mean_success:.3f}",
                    f"{r.min_success:.3f}",
                    f"{r.mean_fidelity:.3f}",
                    f"{r.wall_clock_s:.1f}",
                    r.frames_sent,
                    r.frames_collided,
                )
                for r in rows
            ],
        )
    )
    by_n = {r.num_users: r for r in rows}
    assert set(by_n) == {1, 4, 16, 32}

    # Every fleet size ran one session per user on the shared network.
    for r in rows:
        assert len(r.success_ratios) == r.num_users

    # The acceptance bar: at N=4 every user stays within 10 percentage
    # points of the single-user baseline.
    baseline = by_n[1].success_ratios[0]
    assert baseline >= 0.9, "single-user baseline itself is unhealthy"
    for user_id, ratio in enumerate(by_n[4].success_ratios):
        assert ratio >= baseline - 0.10, (
            f"user {user_id} at N=4 fell {baseline - ratio:.3f} below the "
            f"single-user baseline {baseline:.3f}"
        )

    # Saturation is graceful, not a collapse: large fleets still serve
    # most periods for most users.
    assert by_n[16].mean_success >= 0.6
    assert by_n[32].mean_success >= 0.4

    # Work scales with the fleet: more users, more traffic and events.
    assert by_n[32].frames_sent > by_n[4].frames_sent > by_n[1].frames_sent
    assert by_n[32].events_executed > by_n[1].events_executed
