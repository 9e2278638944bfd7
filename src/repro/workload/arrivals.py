"""User arrival processes for multi-user workloads.

A workload spawns ``N`` mobile users on one shared network; the arrival
process decides *when* each user's query session begins.  User 0 always
starts at ``t = 0`` so every workload embeds the single-user baseline run
as its first session — the scaling benchmarks compare the other users
against it directly.

Four processes are provided:

* ``simultaneous`` — everyone starts at once (worst-case tree-setup
  contention, the Section 5.4 interference regime).
* ``staggered`` — deterministic spacing of ``spacing_s`` between starts
  (a patrol fleet dispatched one robot at a time).
* ``uniform`` — starts drawn uniformly over a window of
  ``spacing_s * (N - 1)`` seconds (users trickling into the field).
* ``poisson`` — exponential interarrivals with mean ``spacing_s`` (open
  workload; the classic arrival model for independent requesters).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

ARRIVAL_SIMULTANEOUS = "simultaneous"
ARRIVAL_STAGGERED = "staggered"
ARRIVAL_UNIFORM = "uniform"
ARRIVAL_POISSON = "poisson"

ARRIVAL_PROCESSES = (
    ARRIVAL_SIMULTANEOUS,
    ARRIVAL_STAGGERED,
    ARRIVAL_UNIFORM,
    ARRIVAL_POISSON,
)

#: processes that draw from an RNG stream
_STOCHASTIC = (ARRIVAL_UNIFORM, ARRIVAL_POISSON)


def check_arrivals(num_users: int, process: str, spacing_s: float) -> None:
    """Reject an arrival description no process can draw, with one-line
    errors: the one home of these rules, for :func:`arrival_times` and a
    scenario's request templates at load (``count``, ``arrival``,
    ``spacing_s``)."""
    if not isinstance(num_users, int) or isinstance(num_users, bool) or num_users < 1:
        raise ValueError(f"request count must be an integer >= 1, got {num_users!r}")
    if process not in ARRIVAL_PROCESSES:
        raise ValueError(
            f"unknown arrival process {process!r}; expected one of {ARRIVAL_PROCESSES}"
        )
    if spacing_s < 0:
        raise ValueError(f"arrival spacing must be >= 0, got {spacing_s}")


def arrival_times(
    num_users: int,
    process: str = ARRIVAL_SIMULTANEOUS,
    spacing_s: float = 0.0,
    rng: Optional[np.random.Generator] = None,
) -> List[float]:
    """Session start times for ``num_users`` users (user 0 always at 0).

    Args:
        num_users: how many users the workload spawns (>= 1).
        process: one of :data:`ARRIVAL_PROCESSES`.
        spacing_s: spacing (staggered), per-user window share (uniform) or
            mean interarrival (poisson); ignored for simultaneous.
        rng: random stream, required for the stochastic processes.

    Returns:
        Non-decreasing start times, one per user, ``times[0] == 0.0``.
    """
    check_arrivals(num_users, process, spacing_s)
    if process in _STOCHASTIC and rng is None:
        raise ValueError(f"arrival process {process!r} needs an rng")
    if num_users == 1 or process == ARRIVAL_SIMULTANEOUS:
        return [0.0] * num_users
    if process == ARRIVAL_STAGGERED:
        return [i * spacing_s for i in range(num_users)]
    assert rng is not None
    if process == ARRIVAL_UNIFORM:
        window = spacing_s * (num_users - 1)
        rest = sorted(float(rng.uniform(0.0, window)) for _ in range(num_users - 1))
        return [0.0] + rest
    # poisson: cumulative exponential interarrivals after user 0
    times = [0.0]
    for _ in range(num_users - 1):
        times.append(times[-1] + float(rng.exponential(spacing_s)))
    return times
