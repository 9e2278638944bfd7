"""Worker-process transport: running shard worlds in parallel.

Shard worlds are deterministic functions of ``(config, ordered
submissions, ordered admission decisions)``: rebuilding a world from the
same triple replays the exact RNG draws and kernel events the in-process
world would execute.  That is what makes the cluster's ``workers=N`` mode
safe — :class:`ClusterService` reads each shard's submissions and
decisions off its handles, ships one :class:`ShardPlan` per shard to a
worker process, and the worker replays it to the horizon and returns the
scored sessions.  The results are bit-identical to running the same shard
in-process.

``parallel_map`` is the process-pool plumbing extracted from
``run_replications_parallel`` (PR 2) and shared with it: fork start
method where available, graceful ``None`` return (caller falls back to
serial) when process pools are unavailable or die — restricted sandboxes
and 1-CPU boxes degrade cleanly.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, fields
from typing import Callable, List, Optional, Sequence, Tuple

from ..api.admission import AdmissionDecision, AdmissionPolicy
from ..api.backend import BackendStats
from ..api.config import ExperimentConfig
from ..api.requests import QueryRequest
from ..faults.plan import FaultPlan, reject_unknown_keys
from ..workload.session import SessionResult


def parallel_map(
    fn: Callable,
    items: Sequence,
    max_workers: int,
) -> Optional[List]:
    """``[fn(x) for x in items]`` across OS processes; ``None`` on fallback.

    Returns results in item order, or ``None`` when a process pool cannot
    be used (single worker requested, pools unavailable in this sandbox,
    workers killed mid-flight, or unpicklable payloads) — the caller runs
    its serial path instead.  ``fn`` must be a module-level callable.
    """
    if max_workers <= 1 or len(items) <= 1:
        return None
    import concurrent.futures
    import multiprocessing

    # fork keeps startup cheap and inherits the imported model code; fall
    # back to the platform default (spawn) where fork is unavailable.
    mp_context = None
    if "fork" in multiprocessing.get_all_start_methods():
        mp_context = multiprocessing.get_context("fork")
    try:
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=max_workers, mp_context=mp_context
        ) as pool:
            return list(pool.map(fn, items))
    except (OSError, PermissionError, pickle.PicklingError,
            concurrent.futures.BrokenExecutor):
        # No process support (seccomp'd CI, restricted container), killed
        # workers (BrokenProcessPool), or an unpicklable payload: degrade
        # gracefully to the caller's serial path rather than fail the run.
        return None


class ReplayAdmissionPolicy(AdmissionPolicy):
    """Replay a pre-recorded decision sequence, one per submission.

    The cluster decided admission in-process (with the cluster-wide view);
    a worker rebuilding the shard must reproduce those exact verdicts —
    re-running a policy shard-locally could decide differently (e.g. a
    phase slot counted cluster-wide).  Decisions are consumed in
    submission order; running out is a protocol violation and raises.
    """

    name = "replay"

    def __init__(self, decisions: Sequence[AdmissionDecision]) -> None:
        self._decisions = list(decisions)
        self._next = 0

    def decide(self, spec, path, service) -> AdmissionDecision:
        if self._next >= len(self._decisions):
            raise RuntimeError(
                f"replay exhausted after {len(self._decisions)} decisions — "
                f"the worker submitted more requests than the plan recorded"
            )
        decision = self._decisions[self._next]
        self._next += 1
        return decision

    def describe(self) -> str:
        return f"replay({len(self._decisions)} decisions)"


#: the keys of one serialized admission decision
_DECISION_KEYS = frozenset(f.name for f in fields(AdmissionDecision))


def decision_to_dict(decision: AdmissionDecision) -> dict:
    """JSON-able form of one admission decision (submission-log entry)."""
    return {
        "admitted": decision.admitted,
        "reason": decision.reason,
        "start_offset_s": decision.start_offset_s,
    }


def decision_from_dict(data: dict) -> AdmissionDecision:
    """Rebuild a decision from :func:`decision_to_dict` output (strict)."""
    reject_unknown_keys(data, _DECISION_KEYS, "decision")
    return AdmissionDecision(
        admitted=bool(data["admitted"]),
        reason=str(data.get("reason", "")),
        start_offset_s=float(data.get("start_offset_s", 0.0)),
    )


@dataclass(frozen=True)
class ShardPlan:
    """Everything a worker needs to rebuild and run one shard world."""

    #: shard index in the cluster (for error messages / ordering)
    shard: int
    #: the shard world's full config (region/node-count already sliced)
    config: ExperimentConfig
    #: submissions in order, with cluster-assigned user ids baked in
    requests: Tuple[QueryRequest, ...] = ()
    #: the admission verdict recorded for each submission, same order
    decisions: Tuple[AdmissionDecision, ...] = ()
    #: the cluster's fault plan (each shard applies what falls inside its
    #: world: crashes above the shard's node count are skipped, blackouts
    #: outside its region find no victims); None = fault-free
    faults: Optional[FaultPlan] = None


@dataclass(frozen=True)
class ShardOutcome:
    """What a worker reports back for one shard, in submission order."""

    shard: int
    #: final handle status per submission ("completed" / "rejected")
    statuses: Tuple[str, ...] = ()
    #: scored session per submission (None for rejected ones)
    sessions: Tuple[Optional[SessionResult], ...] = ()
    #: the shard's final counter snapshot
    stats: Optional[BackendStats] = None


def run_shard_plan(plan: ShardPlan) -> ShardOutcome:
    """Rebuild one shard world from its plan and run it to the horizon.

    Module-level so process pools can pickle it.  Deterministic: the same
    plan always yields the same outcome, bit-identical to the in-process
    shard it was recorded from.
    """
    from ..api.service import MobiQueryService

    service = MobiQueryService(
        plan.config,
        admission=ReplayAdmissionPolicy(plan.decisions),
        faults=plan.faults,
    )
    for request in plan.requests:
        service.submit(request)
    service.finalize()
    sessions: List[Optional[SessionResult]] = []
    for handle in service.handles:
        sessions.append(handle.result() if handle.accepted else None)
    return ShardOutcome(
        shard=plan.shard,
        statuses=tuple(h.status for h in service.handles),
        sessions=tuple(sessions),
        stats=service.stats(),
    )


def run_shards_parallel(
    plans: Sequence[ShardPlan], max_workers: int
) -> Optional[List[ShardOutcome]]:
    """Run shard plans across worker processes; ``None`` means "go serial".

    The plans are pickled up front so an unpicklable payload (say, a
    caller-supplied profile provider holding an open resource) degrades to
    the serial path instead of exploding inside the pool.
    """
    try:
        pickle.dumps(plans)
    except Exception:
        return None
    return parallel_map(run_shard_plan, list(plans), max_workers=max_workers)


__all__ = [
    "ReplayAdmissionPolicy",
    "ShardOutcome",
    "ShardPlan",
    "decision_from_dict",
    "decision_to_dict",
    "parallel_map",
    "run_shard_plan",
    "run_shards_parallel",
]
