"""Experiment runner: the legacy harness as a thin adapter over the API.

``run_experiment`` is the entry point every figure module uses.  Since the
service façade (:mod:`repro.api`) landed it no longer assembles the world
itself: it builds a :class:`~repro.api.service.MobiQueryService` from the
:class:`ExperimentConfig`, submits one :class:`~repro.api.requests.
QueryRequest` per configured user (all sharing the config's ``query``
parameters — the historical homogeneous workload), runs to the horizon and
repackages the scores as a :class:`RunResult`.

The adapter is deliberately bit-identical to the pre-API runner: the same
RNG streams are consumed in the same per-user order and the same kernel
events are scheduled in the same sequence, so the pins of
`tests/data/pins.json` hold across the redesign.  New code that wants
heterogeneous per-user queries, admission control, streaming results or
cancellation should use :class:`~repro.api.service.MobiQueryService`
directly — this module remains for the paper-figure reproduction paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..api.requests import QueryRequest
from ..api.service import RUN_TAIL_S, MobiQueryService
from ..core.metrics import (
    ContentionTracker,
    PowerReport,
    SessionMetrics,
    measure_power,
)
from ..workload.arrivals import arrival_times
from ..workload.engine import WorkloadResult
from ..workload.session import PROXY_ID_BASE, SessionResult
from ..sim.rng import RandomStreams
from ..api.config import MODE_IDLE, ExperimentConfig

#: node id assigned to user 0's proxy endpoint (user ``u`` gets base + u)
PROXY_NODE_ID = PROXY_ID_BASE

__all__ = [
    "PROXY_NODE_ID",
    "RUN_TAIL_S",
    "RunResult",
    "legacy_requests",
    "run_experiment",
    "run_replications",
    "run_replications_parallel",
    "mean_success_ratio",
]


@dataclass
class RunResult:
    """Everything measured in one run."""

    config: ExperimentConfig
    metrics: Optional[SessionMetrics]
    power: PowerReport
    backbone_size: int
    max_prefetch_length: int
    max_tree_states: int
    interference_length: int
    frames_sent: int
    frames_collided: int
    events_executed: int
    #: frames handed to a receiver MAC (channel-level delivery counter)
    frames_delivered: int = 0
    #: per-user scored sessions (one entry for single-user runs, empty for idle)
    sessions: List[SessionResult] = field(default_factory=list)

    @property
    def success_ratio(self) -> float:
        """Headline number (0.0 for idle runs).

        For multi-user runs this is user 0's ratio — the baseline-aligned
        session; use the ``user_*`` accessors for fleet-wide numbers.
        """
        return self.metrics.success_ratio() if self.metrics else 0.0

    @property
    def workload(self) -> WorkloadResult:
        """The sessions viewed as a workload result (fleet aggregates)."""
        return WorkloadResult(sessions=self.sessions)

    @property
    def user_success_ratios(self) -> List[float]:
        """Per-user success ratios in user order."""
        return self.workload.success_ratios()

    @property
    def mean_user_success_ratio(self) -> float:
        return self.workload.mean_success_ratio()


def legacy_requests(config: ExperimentConfig, streams: RandomStreams) -> List[QueryRequest]:
    """One request per configured user: the homogeneous experiment workload.

    Every user shares ``config.query``; start times come from the
    configured arrival process, validated so each session keeps at least
    one serviceable period (the historical error message).
    """
    starts = arrival_times(
        config.num_users,
        process=config.arrival_process,
        spacing_s=config.arrival_spacing_s,
        rng=streams.stream("arrivals"),
    )
    latest = config.duration_s - config.query.period_s
    for user_id, start in enumerate(starts):
        if start > latest:
            raise ValueError(
                f"user {user_id} arrives at {start:.1f}s but the run ends at "
                f"{config.duration_s:.1f}s — no serviceable period left; "
                f"shorten the arrival spacing or lengthen the run"
            )
    return [
        QueryRequest(
            attribute=config.query.attribute,
            aggregation=config.query.aggregation,
            radius_m=config.query.radius_m,
            period_s=config.query.period_s,
            freshness_s=config.query.freshness_s,
            start_s=starts[user_id],
            user_id=user_id,
            accuracy=config.query.accuracy,
        )
        for user_id in range(config.num_users)
    ]


def run_experiment(config: ExperimentConfig, faults=None) -> RunResult:
    """Run one full session (or N concurrent ones) described by ``config``.

    ``faults`` optionally injects a :class:`~repro.faults.plan.FaultPlan`;
    ``None`` (or an empty plan) is bit-identical to the pre-fault runner.
    """
    service = MobiQueryService(config, faults=faults)
    contention = None
    if service.protocol is not None:
        # The interference length's one reader: every session here shares
        # the config's radius, so 2 * Rq + Rc is the run's own range.
        contention = ContentionTracker(
            service.tracer,
            sleep_period_s=config.network.sleep_period_s,
            active_window_s=config.network.active_window_s,
            query_radius_m=config.query.radius_m,
            comm_range_m=config.network.comm_range_m,
            psm_offset_s=service.psm_offset_s,
        )
    sessions: List[SessionResult] = []
    metrics = None
    if config.mode != MODE_IDLE:
        for request in legacy_requests(config, service.streams):
            service.submit(request).require_admitted()
        result = service.finalize()
        sessions = result.sessions
        if sessions:
            metrics = sessions[0].metrics
    else:
        service.run()
    network = service.network
    storage = service.storage
    return RunResult(
        config=config,
        metrics=metrics,
        power=measure_power(network),
        backbone_size=len(network.active_nodes),
        max_prefetch_length=storage.max_prefetch_length if storage else 0,
        max_tree_states=storage.max_tree_states if storage else 0,
        interference_length=contention.interference_length() if contention else 0,
        frames_sent=network.channel.frames_sent,
        frames_collided=network.channel.frames_collided,
        events_executed=service.sim.events_executed,
        frames_delivered=network.channel.frames_delivered,
        sessions=sessions,
    )


def run_replications(config: ExperimentConfig, seeds: List[int]) -> List[RunResult]:
    """Run the same config across several topologies/motions (paper: 3–5)."""
    return [run_experiment(config.with_seed(seed)) for seed in seeds]


def run_replications_parallel(
    config: ExperimentConfig,
    seeds: List[int],
    max_workers: Optional[int] = None,
) -> List[RunResult]:
    """``run_replications`` across OS processes, one seed per task.

    Results are returned in seed order and are identical (per seed) to the
    serial path: each worker runs ``run_experiment`` on its own kernel and
    RNG streams, so parallelism cannot perturb a replication.  The pool
    plumbing is shared with the cluster's worker transport
    (:func:`repro.cluster.transport.parallel_map`); it falls back to the
    serial path for a single seed, for ``max_workers=1``, and when process
    pools are unavailable (restricted sandboxes).
    """
    if len(seeds) <= 1:
        return run_replications(config, seeds)
    import os

    from ..cluster.transport import parallel_map

    workers = max_workers or min(len(seeds), os.cpu_count() or 1)
    configs = [config.with_seed(seed) for seed in seeds]
    results = parallel_map(run_experiment, configs, max_workers=workers)
    if results is None:
        # One CPU, caller-limited, or no process support (seccomp'd CI,
        # restricted container, killed workers): degrade gracefully.
        return run_replications(config, seeds)
    return results


def mean_success_ratio(results: List[RunResult]) -> float:
    """Average success ratio over replications."""
    if not results:
        return 0.0
    return sum(r.success_ratio for r in results) / len(results)
