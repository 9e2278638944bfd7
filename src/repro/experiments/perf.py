"""Canonical hot-path scenarios, for ``repro profile`` and the pin ledger.

Three scenarios cover the simulator's hot paths:

* ``fig4_jit`` — the paper's Section 6.2 single-user setting (MQ-JIT,
  Tsleep=9 s, 3-5 m/s) at quick-scale duration: the figure-benchmark hot
  path.
* ``scale_16users`` — the 16-user point of the multi-user scaling
  benchmark (staggered arrivals, fleet-sized query areas): the multi-user
  hot path that bounds how far the concurrency axis can be pushed.
* ``hetero_mix_8users`` — the ``heterogeneous-mix`` scenario (8 users,
  mixed periods/radii/aggregations): the per-request code path.

Each is a :class:`~repro.api.scenarios.ScenarioSpec`, run by
:func:`~repro.api.scenarios.run_scenario` like every other run.

``repro profile`` runs one of them under cProfile.  Their quick-scale
result and event fingerprints are pinned in ``tests/data/pins.json``
(``tests/test_pins.py``), which takes its configs from
:func:`perf_scenarios`: what is profiled is what is pinned.

Nothing here measures speed: that is ``python3 -m bench``
(``bench/README.md``).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..api.scenarios import ScenarioSpec, get_scenario, run_scenario
from .figures import SCALE_PAPER, bench_scale, paper_section62_config


def perf_scenarios(scale: Optional[str] = None) -> Dict[str, ScenarioSpec]:
    """The canonical hot-path scenarios for ``scale`` (quick|paper)."""
    scale = scale or bench_scale()
    if scale == SCALE_PAPER:
        fig4_duration, fleet_duration, hetero_duration = 400.0, 300.0, 300.0
    else:
        fig4_duration, fleet_duration, hetero_duration = 150.0, 120.0, 120.0
    return {
        "fig4_jit": paper_section62_config(
            sleep_period_s=9.0,
            speed_range=(3.0, 5.0),
            seed=1,
            duration_s=fig4_duration,
        ),
        "scale_16users": ScenarioSpec(
            name="scale_16users",
            description=(
                "The multi-user scaling point: 16 users, Rq=60 m, staggered "
                "2.5 s apart."
            ),
            seed=1,
            duration_s=fleet_duration,
            requests=({"radius_m": 60.0, "count": 16, "spacing_s": 2.5},),
        ),
        "hetero_mix_8users": get_scenario("heterogeneous-mix").with_overrides(
            duration_s=hetero_duration
        ),
    }


#: where ``repro profile`` writes the raw cProfile dump by default
DEFAULT_PROFILE_PATH = "/tmp/repro_prof.out"


def profile_scenario(
    name: str,
    scale: Optional[str] = None,
    duration_s: Optional[float] = None,
    out_path: str = DEFAULT_PROFILE_PATH,
):
    """Run one canonical scenario under ``cProfile`` (the ROADMAP recipe).

    Replaces the two copy-pasted shell lines (``python -m cProfile -o ...``
    then a ``pstats`` one-liner) with a single call: the scenario runs
    once, the raw profile is dumped to ``out_path`` for later digging, and
    the returned :class:`pstats.Stats` is ready for ``sort_stats(...)``
    ``.print_stats(top)``.

    Args:
        name: a :func:`perf_scenarios` key (e.g. ``fig4_jit``).
        scale: quick|paper (defaults to the bench scale).
        duration_s: optional duration override — handy for short looks at
            a hot path without paying the full scenario.
        out_path: where to dump the raw profile.

    Raises:
        KeyError: for an unknown scenario name (message lists valid ones).
    """
    import cProfile
    import pstats

    scenarios = perf_scenarios(scale)
    spec = scenarios.get(name)
    if spec is None:
        raise KeyError(
            f"unknown scenario {name!r}; expected one of: "
            + ", ".join(sorted(scenarios))
        )
    if duration_s is not None:
        spec = spec.with_overrides(duration_s=duration_s)
    profiler = cProfile.Profile()
    profiler.enable()
    run_scenario(spec)
    profiler.disable()
    profiler.dump_stats(out_path)
    return pstats.Stats(profiler)
