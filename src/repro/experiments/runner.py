"""Replications: one scenario across seeds, serially or across processes.

A figure cell is a :class:`~repro.api.scenarios.ScenarioSpec`; the paper
averages each cell over 3-5 topologies and motions, which is the same spec
at several seeds.  Each replication is one :func:`~repro.api.scenarios.
run_scenario` on its own kernel and RNG streams.
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import List, Optional

from ..api.scenarios import ScenarioResult, ScenarioSpec, run_scenario

__all__ = [
    "run_replications",
    "run_replications_parallel",
    "mean_success_ratio",
]


def run_replications(spec: ScenarioSpec, seeds: List[int]) -> List[ScenarioResult]:
    """Run the same spec across several topologies/motions (paper: 3–5)."""
    return [run_scenario(spec, seed=seed) for seed in seeds]


def _replicate(spec: ScenarioSpec) -> ScenarioResult:
    """One replication as a worker returns it: without its handles, which
    reach the live world (a pickled world is hundreds of KB per result)."""
    return replace(run_scenario(spec), handles=[])


def run_replications_parallel(
    spec: ScenarioSpec,
    seeds: List[int],
    max_workers: Optional[int] = None,
) -> List[ScenarioResult]:
    """``run_replications`` across OS processes, one seed per task.

    Results are returned in seed order and are identical (per seed) to the
    serial path but for ``handles``, which stay behind in the workers.  The
    pool plumbing is shared with the cluster's worker transport
    (:func:`repro.cluster.transport.parallel_map`); it falls back to the
    serial path for a single seed, for ``max_workers=1``, and when process
    pools are unavailable or a worker dies (``parallel_map`` returns
    ``None``: its results are applied all or nothing).
    """
    if len(seeds) <= 1:
        return run_replications(spec, seeds)
    from ..cluster.transport import parallel_map

    workers = max_workers or min(len(seeds), os.cpu_count() or 1)
    specs = [spec.with_overrides(seed=seed) for seed in seeds]
    results = parallel_map(_replicate, specs, max_workers=workers)
    if results is None:
        # One CPU, caller-limited, or no process support (seccomp'd CI,
        # restricted container, killed workers): degrade gracefully.
        return run_replications(spec, seeds)
    return results


def mean_success_ratio(results: List[ScenarioResult]) -> float:
    """Average success ratio over replications."""
    if not results:
        return 0.0
    return sum(r.mean_success for r in results) / len(results)
