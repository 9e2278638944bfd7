"""Canonical hot-path scenarios and their pinned fingerprints.

Three scenarios cover the simulator's hot paths:

* ``fig4_jit`` — the paper's Section 6.2 single-user setting (MQ-JIT,
  Tsleep=9 s, 3-5 m/s) at quick-scale duration: the figure-benchmark hot
  path.
* ``scale_16users`` — the 16-user point of the multi-user scaling
  benchmark (staggered arrivals, fleet-sized query areas): the multi-user
  hot path that bounds how far the concurrency axis can be pushed.
* ``hetero_mix_8users`` — the ``heterogeneous-mix`` scenario through the
  service façade (8 users, mixed periods/radii/aggregations): the
  per-request API code path, so a service-layer regression cannot hide
  behind the legacy adapter.

plus ``cluster_scale_64users`` on one world and on four shards.  Each is
run once and compared with its pinned *fingerprint* (frame, event and
success counts), a whole-system determinism check: an optimization that
changes what the simulation computes fails here before any statistics
drift quietly (``benchmarks/test_perf_hotpaths.py``,
``benchmarks/test_cluster_scale.py``).  ``repro profile`` runs one of
them under cProfile.

Nothing here measures speed: that is ``python3 -m bench``
(``bench/README.md``).
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Dict, List, Optional

from ..api.scenarios import _scenario_config, get_scenario, run_scenario
from ..cluster.service import ClusterService
from ..workload.arrivals import ARRIVAL_STAGGERED
from ..api.config import MODE_JIT, ExperimentConfig, QueryParams, paper_section62_config
from .figures import SCALE_PAPER, SCALE_QUICK, bench_scale
from .runner import run_experiment

#: Quick-scale **result fingerprints**: what the simulation computes,
#: independent of machine speed and of how work is packed into kernel
#: events.  These are the correctness gate — they have been bit-identical
#: through the PR 2 inlining pass and the PR 4 batching overhaul (the
#: golden determinism tests assert the same property at finer grain) and
#: only a deliberate *model* change may re-pin them.
RESULT_FINGERPRINTS: Dict[str, Dict[str, object]] = {
    "fig4_jit": {
        "frames_sent": 11165,
        "frames_collided": 21433,
        "mean_success": 0.973333,
    },
    "scale_16users": {
        "frames_sent": 20106,
        "frames_collided": 18356,
        "mean_success": 0.912362,
    },
    # captured when the service façade landed (the scenario runs through
    # MobiQueryService.submit, not the legacy adapter)
    "hetero_mix_8users": {
        "frames_sent": 13482,
        "frames_collided": 11614,
        "mean_success": 0.929925,
    },
}

#: Quick-scale **event-count fingerprints**: how many kernel events a run
#: executes.  Unlike the result fingerprints these are an implementation
#: property — an optimization that batches work into fewer events
#: legitimately changes them and must re-pin in the same commit.  Comment
#: trail: pinned at 240132/465442/238732 through PR 2-3 (per-listener
#: receptions, per-node PSM boundary events); re-pinned in PR 4 when the
#: batched reception pipeline (whole receiver cohort resolved by one
#: end-of-airtime event, MAC broadcast completion folded into it) and the
#: PSM wake-wheel (one event per distinct window boundary, overrides no
#: longer chain duplicate per-node boundary events) removed ~83% of
#: kernel events with bit-identical results.
EVENT_FINGERPRINTS: Dict[str, int] = {
    "fig4_jit": 41408,
    "scale_16users": 74773,
    "hetero_mix_8users": 50203,
}

#: The cluster scale-out scenario: 64 users on the ``cluster_scale_64users``
#: registry spec, run twice — once on one world (``shards=1``, explicitly
#: through ``ClusterService`` so the run also proves the single-shard
#: identity) and once sharded (``shards=4, workers=4``; workers engage on
#: multi-core machines, fall back to the in-process lockstep path on
#: 1-CPU boxes).
CLUSTER_SCENARIO = "cluster_scale_64users"

#: Quick-scale result fingerprints for the cluster scenario.  ``shards1`` was
#: captured from **MobiQueryService** (the golden identity target): the
#: ``ClusterService(shards=1)`` measurement must reproduce it bit for bit.
#: ``shards4`` pins the sharded run's own determinism (4 independent
#: worlds, seeds 1..4) — the two rows are different physics (different
#: topologies and fleet densities), never compared to each other.
CLUSTER_RESULT_FINGERPRINTS: Dict[str, Dict[str, object]] = {
    # Captured from a MobiQueryService run of the same spec (verified equal
    # to the ClusterService(shards=1) measurement in the same session).
    "shards1": {
        "frames_sent": 24801,
        "frames_delivered": 782952,
        "mean_success": 0.766858,
    },
    "shards4": {
        "frames_sent": 24308,
        "frames_delivered": 639339,
        "mean_success": 0.788292,
    },
}


def perf_scenarios(scale: Optional[str] = None) -> Dict[str, object]:
    """The canonical hot-path scenarios for ``scale`` (quick|paper).

    Values are either an :class:`ExperimentConfig` (run through the legacy
    adapter) or a :class:`~repro.api.scenarios.ScenarioSpec` (run through
    the service façade); :func:`_run_once` dispatches on type.
    """
    scale = scale or bench_scale()
    if scale == SCALE_PAPER:
        fig4_duration, fleet_duration, hetero_duration = 400.0, 300.0, 300.0
    else:
        fig4_duration, fleet_duration, hetero_duration = 150.0, 120.0, 120.0
    fleet = ExperimentConfig(
        mode=MODE_JIT,
        seed=1,
        duration_s=fleet_duration,
        query=QueryParams(radius_m=60.0),
    ).with_num_users(16, arrival_process=ARRIVAL_STAGGERED, arrival_spacing_s=2.5)
    return {
        "fig4_jit": paper_section62_config(
            mode=MODE_JIT,
            sleep_period_s=9.0,
            speed_range=(3.0, 5.0),
            seed=1,
            duration_s=fig4_duration,
        ),
        "scale_16users": fleet,
        "hetero_mix_8users": get_scenario("heterogeneous-mix").with_overrides(
            duration_s=hetero_duration
        ),
    }


def _run_once(config) -> Dict[str, object]:
    """Run one scenario object; the counters its fingerprints are pinned in."""
    if isinstance(config, ExperimentConfig):
        result = run_experiment(config)
        mean_success = result.mean_user_success_ratio
    else:
        result = run_scenario(config)
        mean_success = result.mean_success
    return {
        "events_executed": result.events_executed,
        "frames_sent": result.frames_sent,
        "frames_collided": result.frames_collided,
        "mean_success": round(mean_success, 6),
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
    config = scenarios.get(name)
    if config is None:
        raise KeyError(
            f"unknown scenario {name!r}; expected one of: "
            + ", ".join(sorted(scenarios))
        )
    if duration_s is not None:
        if isinstance(config, ExperimentConfig):
            config = replace(config, duration_s=duration_s)
        else:
            config = config.with_overrides(duration_s=duration_s)
    profiler = cProfile.Profile()
    profiler.enable()
    _run_once(config)
    profiler.disable()
    profiler.dump_stats(out_path)
    return pstats.Stats(profiler)


def run_perf_suite(scale: Optional[str] = None) -> Dict:
    """Run every canonical scenario once; its counters, keyed by name."""
    scale = scale or bench_scale()
    return {
        "scale": scale,
        "scenarios": {
            name: _run_once(config)
            for name, config in perf_scenarios(scale).items()
        },
    }


def fingerprint_mismatches(report: Dict) -> List[str]:
    """Determinism check: quick-scale runs must match the pinned fingerprints.

    Result-fingerprint mismatches mean the simulation *computes something
    different* (never acceptable from a pure optimization); event-count
    mismatches mean work was repacked into kernel events differently (only
    acceptable when re-pinned deliberately, in the same commit).
    """
    if report.get("scale") != SCALE_QUICK:
        return []
    problems = []
    for name, expected in RESULT_FINGERPRINTS.items():
        got = report["scenarios"].get(name)
        if got is None:
            problems.append(f"{name}: scenario missing from report")
            continue
        for field, value in expected.items():
            if got.get(field) != value:
                problems.append(
                    f"{name}.{field}: expected {value}, measured {got.get(field)} "
                    "— the simulation's results changed, not just its speed"
                )
        events = EVENT_FINGERPRINTS[name]
        if got.get("events_executed") != events:
            problems.append(
                f"{name}.events_executed: expected {events}, measured "
                f"{got.get('events_executed')} — the event structure changed; "
                "if the results above still match, re-pin EVENT_FINGERPRINTS "
                "in the same commit and say so in the commit message"
            )
    return problems


def cluster_scenario(scale: Optional[str] = None):
    """The ``cluster_scale_64users`` spec at ``scale`` (quick|paper)."""
    spec = get_scenario(CLUSTER_SCENARIO)
    if (scale or bench_scale()) == SCALE_PAPER:
        spec = spec.with_overrides(duration_s=240.0)
    return spec


def _run_cluster_once(spec, shards: int, workers: int) -> Dict:
    """One cluster run of ``spec`` on ``shards`` worlds; its report entry."""
    # Always through ClusterService — for shards=1 that *is* the point:
    # the run doubles as the single-shard identity gate.
    backend = ClusterService(
        _scenario_config(spec),
        shards=shards,
        workers=workers,
        partitioner=spec.partitioner,
    )
    started = time.perf_counter()
    result = run_scenario(spec, backend=backend)
    wall = time.perf_counter() - started
    return {
        "shards": shards,
        "parallel_used": backend.parallel_used,
        # one sample, for the reader: never compared with anything
        "wall_s": round(wall, 4),
        "frames_sent": result.frames_sent,
        "frames_delivered": result.frames_delivered,
        "mean_success": round(result.mean_success, 6),
    }


def run_cluster_suite(scale: Optional[str] = None) -> Dict:
    """Run ``cluster_scale_64users`` on one world, then as the spec shards it.

    Returns a ``shards1`` entry (the single-shard identity run) and a
    ``shardsN`` entry (the sharded run, worker processes when the machine
    has the cores).
    """
    scale = scale or bench_scale()
    spec = cluster_scenario(scale)
    return {
        "scenario": CLUSTER_SCENARIO,
        "scale": scale,
        "shards1": _run_cluster_once(spec, shards=1, workers=0),
        f"shards{spec.shards}": _run_cluster_once(
            spec, shards=spec.shards, workers=spec.workers
        ),
    }


def cluster_fingerprint_mismatches(cluster_report: Dict) -> List[str]:
    """Determinism gate for the cluster scenario (quick scale only).

    ``shards1`` must reproduce the pinned **MobiQueryService** fingerprint
    exactly — that is the single-shard identity guarantee; the sharded
    entry must reproduce its own pin (4 deterministic worlds).
    """
    if cluster_report.get("scale") != SCALE_QUICK:
        return []
    problems: List[str] = []
    for key, expected in CLUSTER_RESULT_FINGERPRINTS.items():
        entry = cluster_report.get(key)
        if entry is None:
            problems.append(f"cluster {key}: layout missing from report")
            continue
        for field, value in expected.items():
            if entry.get(field) != value:
                problems.append(
                    f"cluster {key}.{field}: expected {value}, measured "
                    f"{entry.get(field)} — "
                    + (
                        "the single-shard cluster no longer matches the "
                        "single-world service"
                        if key == "shards1"
                        else "the sharded run's results changed"
                    )
                )
    return problems
