"""``ClusterService``: the sharded query plane behind the stable API.

One Python kernel tops out around 32 users x 200 nodes; the service
façade is the seam to scale past that.  A :class:`ClusterService`
partitions the sensor field into regional shards (pluggable
:class:`~repro.cluster.partition.Partitioner`), instantiates **one full
world per shard** — its own kernel, channel, backbone, protocol engine —
and routes every :class:`~repro.api.requests.QueryRequest` to the shard
its query geometry (motion path x radius) lives in.  Callers get back
the exact same :class:`~repro.api.service.SessionHandle` lifecycle
(``results()`` / ``cancel()`` / ``result()``) a single
:class:`~repro.api.service.MobiQueryService` hands out — the cluster is
just another :class:`~repro.api.backend.QueryBackend`.

Identity guarantees:

* ``ClusterService(config, shards=1)`` is **bit-identical** to
  ``MobiQueryService(config)``: one shard covers the whole region with
  the whole node budget and the base seed, requests route to it
  unchanged, and user ids are assigned by the same lowest-free rule.
* Shard worlds advance in lockstep epochs
  (:class:`~repro.cluster.scheduler.LockstepScheduler`), so cluster-wide
  snapshots (stats, admission views) are coherent mid-run.
* Admission aggregates cluster-wide: the configured policy sees the
  *cluster's* live sessions and admitted counts, so ``per-area-cap`` and
  ``phase-assign`` behave as if there were one big world.
* With ``workers=N`` the batch path (``finalize()``/``close()`` before
  any streaming) replays each shard's recorded submission/decision log in
  a worker process (:mod:`repro.cluster.transport`) — bit-identical
  results, real multi-core speedup, clean serial fallback on 1-CPU boxes
  or restricted sandboxes.

Sharding is an approximation the routing makes explicit: a query whose
footprint straddles a shard boundary is served entirely by the
best-overlapping shard (sensors beyond the boundary belong to another
world).  Keep shards at least a couple of radio ranges wide relative to
query radii — the balanced-kd partitioner's near-square cells are the
safe default.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Union

from ..api.admission import AcceptAllPolicy, AdmissionDecision, AdmissionPolicy
from ..api.backend import BackendStats
from ..api.config import ExperimentConfig
from ..api.requests import QueryRequest
from ..api.service import (
    RUN_TAIL_S,
    STATUS_CANCELLED,
    MobiQueryService,
    ServiceClosedError,
    SessionHandle,
    SessionIndex,
)
from ..faults.plan import FaultPlan
from ..approx.plane import SummaryAnswer, merge_answers
from ..geometry.grid import gap_sq
from ..geometry.shapes import Rect
from ..workload.engine import WorkloadResult
from .partition import (
    Partitioner,
    make_partitioner,
    overlap_area,
    shard_node_counts,
)
from .scheduler import LockstepScheduler
from .transport import ShardOutcome, ShardPlan, run_shards_parallel


class _ClusterAdmission(AdmissionPolicy):
    """Per-shard admission adapter: decide with the cluster-wide view.

    Installed as every shard service's policy.  A shard asking "may this
    session in?" is answered by the *cluster's* configured policy looking
    at the *cluster's* aggregate state (admitted counts and live sessions
    across all shards); the verdict rides on the handle, which is what
    lets ``workers=N`` replay the shard deterministically in a worker
    process.
    """

    def __init__(self, cluster: "ClusterService") -> None:
        self.cluster = cluster

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"cluster({self.cluster.admission.name})"

    def decide(self, spec, path, service) -> AdmissionDecision:
        return self.cluster.admission.decide(spec, path, self.cluster)

    def describe(self) -> str:
        return f"cluster({self.cluster.admission.describe()})"


class ClusterService:
    """Regional shards behind the :class:`QueryBackend` surface.

    Args:
        config: the world description, exactly as for
            :class:`MobiQueryService`.  ``config.network.region`` is the
            *whole* field; each shard world gets one partition cell of it
            with a proportional share of ``n_nodes`` (density preserved)
            and seed ``config.seed + shard_index`` (shard 0 keeps the base
            seed — the single-shard identity).
        shards: how many regional worlds to run (>= 1).
        admission: the cluster-wide admission policy (default accept-all).
        partitioner: a :class:`Partitioner`, a registry name
            (``"balanced-kd"`` / ``"grid-stripe"``), or None for the
            default (balanced-kd).
        workers: worker processes for the batch ``finalize()`` path
            (0/1 = in-process; capped at the shard count).
        faults: optional cluster-wide :class:`FaultPlan`.  World faults
            (crashes/blackouts/degradations) are handed to every shard —
            each world applies what falls inside it, so ``shards=1`` stays
            bit-identical to a faulted single service.  ``worker_kills``
            exercise the batch path: the named shard's worker outcome is
            discarded once and the shard replayed on a fresh (serial)
            worker, bit-identically.
    """

    def __init__(
        self,
        config: ExperimentConfig,
        shards: int = 1,
        admission: Optional[AdmissionPolicy] = None,
        partitioner: Union[Partitioner, str, None] = None,
        workers: int = 0,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self.config = config
        self.admission = admission or AcceptAllPolicy()
        self.partitioner = make_partitioner(partitioner)
        self.workers = workers
        self.faults = faults if faults is not None else FaultPlan()
        self.regions: List[Rect] = self.partitioner.partition(
            config.network.region, shards
        )
        counts = shard_node_counts(config.network.n_nodes, self.regions)
        self.shard_configs: List[ExperimentConfig] = [
            replace(
                config,
                seed=config.seed + index,
                network=replace(config.network, region=region, n_nodes=count),
            )
            for index, (region, count) in enumerate(zip(self.regions, counts))
        ]
        adapter = _ClusterAdmission(self)
        self.services: List[MobiQueryService] = [
            MobiQueryService(shard_config, admission=adapter, faults=self.faults)
            for shard_config in self.shard_configs
        ]
        self.scheduler = LockstepScheduler(
            [service.sim for service in self.services]
        )
        self._sessions = SessionIndex()
        self._handle_shard: Dict[int, int] = {}
        self._stats_override: Dict[int, BackendStats] = {}
        self._completed = False
        self._closed = False
        self._closed_result: Optional[WorkloadResult] = None
        #: True when the last finalize actually ran in worker processes
        self.parallel_used = False

    # ------------------------------------------------------------------
    # Introspection (the surface admission policies consult)
    # ------------------------------------------------------------------
    @property
    def duration_s(self) -> float:
        """The service horizon (shared by every shard)."""
        return self.config.duration_s

    @property
    def num_shards(self) -> int:
        return len(self.services)

    @property
    def handles(self) -> List[SessionHandle]:
        """Every handle the cluster handed out, in submission order."""
        return self._sessions.handles

    def admitted_count(self) -> int:
        """Sessions ever admitted, cluster-wide (phase-slot counter)."""
        return sum(service.admitted_count() for service in self.services)

    def admitted_handles(self) -> List[SessionHandle]:
        """Admitted handles in cluster submission order."""
        return [h for h in self.handles if h.accepted]

    def live_session_specs(self, at: float) -> List[SessionHandle]:
        """Admitted, uncancelled sessions live at ``at``, across shards, in
        cluster submission order.  The clock is the slowest shard's: a
        session that ended before it is over in every world."""
        return self._sessions.live(
            at, min(service.sim.now for service in self.services)
        )

    def shard_of(self, handle: SessionHandle) -> int:
        """Which shard serves ``handle`` (raises for foreign handles)."""
        shard = self._handle_shard.get(id(handle))
        if shard is None:
            raise ValueError("handle was not issued by this cluster")
        return shard

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _footprint(self, request: QueryRequest) -> Rect:
        """Bounding box of the request's motion path, grown by its radius."""
        assert request.path is not None
        xs = [w.position.x for w in request.path.waypoints]
        ys = [w.position.y for w in request.path.waypoints]
        r = request.radius_m
        return Rect(min(xs) - r, min(ys) - r, max(xs) + r, max(ys) + r)

    def route(self, request: QueryRequest) -> int:
        """The shard index a request would be served by.

        A request with an explicit motion path goes to the shard whose
        region overlaps the path-x-radius footprint most (ties to the
        lowest index).  A request without a path has no geometry yet (the
        serving shard synthesises the walk inside its own region), so it
        goes to the least-loaded shard by admitted-session count — a
        deterministic spread.
        """
        if len(self.services) == 1:
            return 0
        if request.path is not None:
            overlaps = [
                overlap_area(self._footprint(request), region)
                for region in self.regions
            ]
            best = max(overlaps)
            if best > 0.0:
                return overlaps.index(best)
        # Least-loaded spread with an EXPLICIT lowest-index tie-break: the
        # routing decision is part of the replayable decision log (the
        # workers=N finalize replays each shard's recorded submissions), so
        # ties must resolve identically on every code path that ever
        # recomputes a route — strictly-less keeps the first (lowest)
        # shard index on equal loads by construction, rather than leaning
        # on the incidental first-occurrence behaviour of ``list.index``.
        best_shard = 0
        best_load = self.services[0].admitted_count()
        for index in range(1, len(self.services)):
            load = self.services[index].admitted_count()
            if load < best_load:
                best_shard = index
                best_load = load
        return best_shard

    # ------------------------------------------------------------------
    # The backend lifecycle: submit / advance / cancel / stats / close
    # ------------------------------------------------------------------
    def submit(self, request: QueryRequest) -> SessionHandle:
        """Route one query to its shard; returns the shard's handle.

        User identity is cluster-wide: explicit ``user_id`` collisions
        with a live session are rejected here (a shard only sees its own
        sessions), and ids are assigned by the router's own
        :class:`~repro.api.service.SessionIndex` — the class the single
        service asks — so a one-shard cluster assigns the exact id
        sequence ``MobiQueryService`` would.
        """
        if self._closed:
            raise ServiceClosedError(
                "submit() on a closed cluster (close() already sealed the run)"
            )
        if self._completed:
            raise ServiceClosedError(
                "the service horizon has passed (run finished)"
            )
        user_id = self._sessions.assign_user_id(request.user_id)
        if request.user_id is None:
            # Bake the cluster-assigned id in so the shard's local ids
            # (stream names, proxy ids) are the cluster-wide ones.
            request = replace(request, user_id=user_id)
        shard = self.route(request)
        handle = self.services[shard].submit(request)
        self._sessions.add(handle)
        self._handle_shard[id(handle)] = shard
        return handle

    def advance(self, until: float) -> None:
        """Advance every shard to ``until`` in lockstep epochs."""
        self.scheduler.advance(until)

    def run(self) -> None:
        """Run every shard to the service horizon (plus straggler tail)."""
        self.advance(self.duration_s + RUN_TAIL_S)
        for service in self.services:
            service.run()
        self._completed = True

    def cancel(self, handle: SessionHandle) -> None:
        """Tear one session down mid-run (idempotent, like the service)."""
        self.shard_of(handle)  # reject foreign handles loudly
        handle.cancel()

    def summary_answer(
        self,
        center,
        radius_m: float,
        aggregation,
        accuracy: str = "coarse",
        freshness_s: float = float("inf"),
    ) -> Optional[SummaryAnswer]:
        """One cluster-wide approximate answer for a query disk.

        Each shard whose region the disk touches answers from its own
        summary plane (its world only holds its region's sensors); the
        router composes the per-shard partials associatively with
        :func:`~repro.approx.plane.merge_answers`, so the merged answer
        is boundary-free — no shard ever reads across its border.
        """
        partials: List[SummaryAnswer] = []
        for region, service in zip(self.regions, self.services):
            box = (region.x_min, region.y_min, region.x_max, region.y_max)
            if gap_sq(center.x, center.y, *box) > radius_m * radius_m:
                continue
            answer = service.summary_answer(
                center, radius_m, aggregation, accuracy, freshness_s
            )
            if answer is not None:
                partials.append(answer)
        return merge_answers(partials, aggregation)

    def finalize(self) -> WorkloadResult:
        """Score every admitted session, across all shards.

        Runs the shards to the horizon first — in worker processes when
        ``workers`` allows and no shard has started streaming or
        cancelling (the batch path), in-process lockstep otherwise — and
        returns the sessions in cluster submission order.
        """
        if not self._completed and self._finalize_parallel():
            pass
        else:
            if not self._completed:
                self.run()
            if not self.parallel_used:
                # Per-shard scoring + the admitted -> completed status
                # flip; runs even when run() already reached the horizon
                # (idempotent: scores are cached on the handles).
                for service in self.services:
                    service.finalize()
            self._completed = True
        return WorkloadResult(
            sessions=[h.result() for h in self.handles if h.accepted]
        )

    def stats(self) -> BackendStats:
        """Aggregate counters over every shard world."""
        per_shard = [
            self._stats_override.get(index, service.stats())
            for index, service in enumerate(self.services)
        ]
        return BackendStats(
            now=min(s.now for s in per_shard),
            events_executed=sum(s.events_executed for s in per_shard),
            frames_sent=sum(s.frames_sent for s in per_shard),
            frames_collided=sum(s.frames_collided for s in per_shard),
            frames_delivered=sum(s.frames_delivered for s in per_shard),
            backbone_size=sum(s.backbone_size for s in per_shard),
            shards=len(per_shard),
            submitted=len(self.handles),
            admitted=sum(s.admitted for s in per_shard),
            rejected=sum(s.rejected for s in per_shard),
            cancelled=sum(s.cancelled for s in per_shard),
        )

    def close(self) -> WorkloadResult:
        """Finalize once and seal the cluster (idempotent).

        Sealing propagates to every shard service, so a handle's
        ``result()``/``results()`` after close raises the same
        :class:`~repro.api.service.ServiceClosedError` a single-world
        backend raises — callers keep the returned
        :class:`WorkloadResult` instead.
        """
        if self._closed_result is None:
            self._closed_result = self.finalize()
        self._closed = True
        for service in self.services:
            service._closed = True
        return self._closed_result

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has sealed the cluster."""
        return self._closed

    # ------------------------------------------------------------------
    # The workers=N batch path
    # ------------------------------------------------------------------
    def _parallel_eligible(self) -> bool:
        """Whether the handles' submissions still describe the shard worlds.

        Replay assumes pristine kernels: once any shard advanced (a
        streamed result) or a session was cancelled mid-run, they no
        longer reproduce the in-process state and the cluster finishes
        in-process instead.
        """
        if self.workers <= 1 or len(self.services) <= 1:
            return False
        if any(service.sim.now > 0.0 for service in self.services):
            return False
        if any(h.status == STATUS_CANCELLED for h in self.handles):
            return False
        return True

    def export_shard_plans(self) -> List[ShardPlan]:
        """Every shard's submissions and verdicts as replayable plans.

        One :class:`ShardPlan` per shard, read off the handles (each
        carries the request its shard was given and the decision it got)
        in cluster submission order — what the ``workers=N`` batch path
        replays.
        """
        plan_faults = None if self.faults.empty else self.faults
        per_shard: List[List[SessionHandle]] = [[] for _ in self.services]
        for handle in self.handles:
            per_shard[self._handle_shard[id(handle)]].append(handle)
        return [
            ShardPlan(
                shard=index,
                config=shard_config,
                requests=tuple(h.request for h in handles),
                decisions=tuple(h.decision for h in handles),
                faults=plan_faults,
            )
            for index, (shard_config, handles) in enumerate(
                zip(self.shard_configs, per_shard)
            )
        ]

    def _finalize_parallel(self) -> bool:
        """Try the worker-process batch path; True when it completed."""
        self.parallel_used = False
        if not self._parallel_eligible():
            return False
        plans = self.export_shard_plans()
        import os

        workers = min(self.workers, len(plans), os.cpu_count() or 1)
        outcomes = run_shards_parallel(plans, max_workers=workers)
        if outcomes is None:
            return False
        outcomes = self._replay_killed_workers(plans, outcomes)
        self._apply_outcomes(outcomes)
        self.parallel_used = True
        return True

    def _replay_killed_workers(
        self, plans: List[ShardPlan], outcomes: List[ShardOutcome]
    ) -> List[ShardOutcome]:
        """Apply the plan's ``worker_kills``: discard each named shard's
        worker outcome once and replay the shard on a fresh worker.

        Shard worlds are deterministic functions of their plan, so the
        restarted worker reproduces the killed one's results bit for bit —
        a kill costs wall-clock, never correctness.
        """
        from .transport import run_shard_plan

        killed = {
            kill.shard
            for kill in self.faults.worker_kills
            if kill.shard < len(plans)
        }
        if not killed:
            return outcomes
        by_shard = {outcome.shard: outcome for outcome in outcomes}
        for shard in sorted(killed):
            tracer = self.services[shard].tracer
            tracer.emit(
                "worker-killed", self.services[shard].sim.now, shard=shard
            )
            by_shard[shard] = run_shard_plan(plans[shard])
            tracer.emit(
                "worker-restarted", self.services[shard].sim.now, shard=shard
            )
        return [by_shard[plan.shard] for plan in plans]

    def _apply_outcomes(self, outcomes: List[ShardOutcome]) -> None:
        """Graft worker results onto the in-process handles."""
        by_shard = {outcome.shard: outcome for outcome in outcomes}
        cursors = {index: 0 for index in by_shard}
        for handle in self.handles:
            shard = self._handle_shard[id(handle)]
            outcome = by_shard[shard]
            position = cursors[shard]
            cursors[shard] += 1
            if not handle.accepted:
                continue
            handle._result = outcome.sessions[position]
            handle.status = outcome.statuses[position]
        for index, service in enumerate(self.services):
            stats = by_shard[index].stats
            if stats is not None:
                self._stats_override[index] = stats
            service._completed = True
        self._completed = True

    # ------------------------------------------------------------------
    # Convenience mirrors (parity with MobiQueryService)
    # ------------------------------------------------------------------
    @property
    def events_executed(self) -> int:
        return self.stats().events_executed

    @property
    def backbone_size(self) -> int:
        return self.stats().backbone_size

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ClusterService shards={self.num_shards} "
            f"partitioner={self.partitioner.name} "
            f"sessions={len(self.handles)} "
            f"t={min(s.sim.now for s in self.services):.1f}>"
        )


__all__ = ["ClusterService"]
