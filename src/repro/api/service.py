"""The MobiQuery service façade: the repo's primary public entry point.

One :class:`MobiQueryService` owns a world — simulation kernel, sensor
network, duty-cycling backbone, routing/flooding, and one in-network
protocol engine — and exposes the *service* surface the paper describes:
mobile users ``submit()`` spatiotemporal queries and get back a
:class:`SessionHandle` with a submit/stream/cancel lifecycle:

    service = MobiQueryService(ExperimentConfig(mode=MODE_JIT, seed=7,
                                                duration_s=120.0))
    handle = service.submit(QueryRequest(radius_m=60.0, period_s=2.0))
    for outcome in handle.results():          # advances the shared clock
        print(outcome.k, outcome.on_time, outcome.value)
    result = handle.result()                  # scored SessionResult

Every request carries its own attribute/aggregation/radius/period/
freshness/start — heterogeneous per-user workloads are the normal case,
not a special mode.  A pluggable :class:`AdmissionPolicy` guards the
shared medium (per-area caps, server-side phase assignment); rejected
requests provably leave the kernel untouched.

A whole run — world plus request templates — is described by a
:class:`~repro.api.scenarios.ScenarioSpec` and run by
:func:`~repro.api.scenarios.run_scenario`, which builds this service (or
the sharded cluster) from the spec.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterator, List, Optional

from ..approx.gateway import ApproxGateway
from ..approx.plane import SummaryAnswer, SummaryPlane
from ..core.baseline import NoPrefetchProtocol
from ..core.gateway import BaseGateway, MobiQueryGateway, NoPrefetchGateway
from ..core.metrics import SessionMetrics, build_session_metrics
from ..core.query import QuerySpec
from ..core.service import MobiQueryConfig, MobiQueryProtocol
from ..faults.injector import FaultInjector
from ..faults.plan import FaultPlan
from ..geometry.vec import Vec2
from ..mobility.gps import GpsModel
from ..mobility.models import (
    WALK_MARGIN_M,
    RandomDirectionConfig,
    random_direction_path,
)
from ..mobility.path import PiecewisePath
from ..mobility.planner import FullKnowledgeProvider, PlannerProfileProvider
from ..mobility.predictor import HistoryPredictorProvider
from ..mobility.profile import ProfileProvider
from ..net.flooding import FloodManager
from ..net.network import build_network
from ..net.node import MobileEndpoint
from ..net.routing import GeoRouter
from ..power.ccp import CcpProtocol
from ..sim.kernel import Simulator
from ..sim.rng import RandomStreams
from ..sim.trace import Tracer
from ..workload.engine import WorkloadResult
from ..workload.session import SessionResult, build_proxy
from .admission import AcceptAllPolicy, AdmissionDecision, AdmissionPolicy
from .backend import BackendStats
from .config import (
    DEFAULT_ADVANCE_TIME_S,
    DEFAULT_GPS_ERROR_M,
    DEFAULT_PROFILE_MODE,
    DEFAULT_SAMPLING_PERIOD_S,
    DEFAULT_WALK,
    MODE_GREEDY,
    MODE_IDLE,
    MODE_JIT,
    MODE_NP,
    PROFILE_FULL,
    PROFILE_PLANNER,
    PROFILE_PREDICTOR,
    ExperimentConfig,
    check_accuracy_served,
)
from .requests import PeriodOutcome, QueryRequest

#: extra simulated time after the last deadline (late stragglers, GC)
RUN_TAIL_S = 0.5

#: session lifecycle states
STATUS_REJECTED = "rejected"
STATUS_ADMITTED = "admitted"
STATUS_CANCELLED = "cancelled"
STATUS_COMPLETED = "completed"


class AdmissionError(ValueError):
    """Raised by :meth:`SessionHandle.require_admitted` on a rejected handle."""


class ServiceClosedError(ValueError):
    """The backend's lifecycle is over: ``submit()`` on a sealed/closed
    service, or streaming/scoring a handle after ``close()``.

    Subclasses :class:`ValueError` so callers that guarded against the old
    untyped raise keep working.
    """


class HorizonPassedError(ValueError):
    """``submit()`` of a session that would start with no serviceable
    period left before the service horizon.  Raised before the request
    touches the world: no user id, path draw or handle is spent on it.
    """


def user_stream(base: str, user_id: int) -> str:
    """Stream name for a per-user random source.

    User 0 keeps the historical un-suffixed names so single-user runs
    consume exactly the same random sequences as before the multi-user
    engine existed (bit-for-bit reproducibility of the paper figures).
    """
    return base if user_id == 0 else f"{base}.u{user_id}"


def make_user_path(
    config: ExperimentConfig,
    streams: RandomStreams,
    user_id: int = 0,
    walk: RandomDirectionConfig = DEFAULT_WALK,
) -> PiecewisePath:
    """The paper's user motion: random-direction from the region corner.

    User 0 starts at the corner exactly as in the paper; later users start
    at an independent uniform position inside the margin-inset region (a
    fleet piling onto one corner would measure MAC contention at a single
    cell, not the service).  ``walk`` sets the speed range and leg length.
    """
    region = config.network.region
    rng = streams.stream(user_stream("mobility", user_id))
    margin = WALK_MARGIN_M
    if user_id == 0:
        start = Vec2(region.x_min + margin, region.y_min + margin)
    else:
        start = Vec2(
            float(rng.uniform(region.x_min + margin, region.x_max - margin)),
            float(rng.uniform(region.y_min + margin, region.y_max - margin)),
        )
    return random_direction_path(
        region=region,
        duration_s=config.duration_s,
        config=walk,
        rng=rng,
        start=start,
    )


def make_profile_provider(
    config: ExperimentConfig,
    true_path: PiecewisePath,
    streams: RandomStreams,
    user_id: int = 0,
    profile_mode: Optional[str] = None,
    advance_time_s: Optional[float] = None,
    gps_error_m: Optional[float] = None,
    sampling_period_s: Optional[float] = None,
) -> ProfileProvider:
    """Build the motion-profile pipeline for one user.

    ``profile_mode`` and the knobs come from the request; one left unset
    takes the module default (``DEFAULT_*`` in :mod:`repro.api.config`),
    so one fleet can mix full-knowledge, planner and predictor users.
    """
    mode = profile_mode or DEFAULT_PROFILE_MODE
    if mode == PROFILE_FULL:
        return FullKnowledgeProvider(true_path, config.duration_s)
    if mode == PROFILE_PLANNER:
        advance = (
            advance_time_s if advance_time_s is not None else DEFAULT_ADVANCE_TIME_S
        )
        return PlannerProfileProvider(
            true_path, config.duration_s, advance_time_s=advance
        )
    if mode == PROFILE_PREDICTOR:
        error = gps_error_m if gps_error_m is not None else DEFAULT_GPS_ERROR_M
        sampling = (
            sampling_period_s
            if sampling_period_s is not None
            else DEFAULT_SAMPLING_PERIOD_S
        )
        return HistoryPredictorProvider(
            true_path,
            config.duration_s,
            gps=GpsModel(max_error_m=error),
            rng=streams.stream(user_stream("gps", user_id)),
            sampling_period_s=sampling,
        )
    raise ValueError(f"unhandled profile mode {mode!r}")


class SessionHandle:
    """One submitted query session: status, streamed results, cancel.

    Handles are created by :meth:`MobiQueryService.submit` — rejected
    requests get a handle too (``status == "rejected"``, ``accepted`` is
    False) so callers can uniformly inspect the admission verdict and
    resubmit later.

    An admitted handle *is* the session: it holds the one ``gateway``
    serving the query and, through it, the user's ``proxy`` (the endpoint
    on the shared channel); nothing else in the service keeps either.
    Once the session is torn down (``released``) the proxy is dropped; the
    gateway object stays — closed, with its delivery records — so
    :meth:`period_outcome` and :meth:`result` answer as before.
    """

    def __init__(
        self,
        service: "MobiQueryService",
        request: QueryRequest,
        status: str,
        decision: AdmissionDecision,
        spec: Optional[QuerySpec] = None,
        path: Optional[PiecewisePath] = None,
        gateway: Optional[BaseGateway] = None,
    ) -> None:
        self.service = service
        self.request = request
        self.status = status
        #: the admission policy's verdict on this submission — what the
        #: submission log records and a ``workers=N`` shard plan replays
        self.decision = decision
        self.spec = spec
        self.path = path
        self.gateway = gateway
        self.submitted_at = service.sim.now
        self.cancelled_at: Optional[float] = None
        #: the session's proxy and in-network state are gone (set by the
        #: one teardown ``cancel`` and ``release_session_state`` share, so
        #: it runs at most once)
        self.released = False
        self._result: Optional[SessionResult] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def accepted(self) -> bool:
        """Whether the admission policy let the session in."""
        return self.status != STATUS_REJECTED

    @property
    def reason(self) -> str:
        """Why the policy rejected the session ("" when admitted)."""
        return self.decision.reason

    @property
    def user_id(self) -> Optional[int]:
        return self.spec.user_id if self.spec is not None else self.request.user_id

    @property
    def query_id(self) -> Optional[int]:
        return self.spec.query_id if self.spec is not None else None

    @property
    def session_key(self) -> Optional[tuple]:
        return self.spec.session_key if self.spec is not None else None

    @property
    def proxy(self) -> Optional[MobileEndpoint]:
        """The user's device on the channel; None once ``released``."""
        return self.gateway.proxy if self.gateway is not None else None

    def require_admitted(self) -> "SessionHandle":
        """Return self, or raise :class:`AdmissionError` if rejected."""
        if not self.accepted:
            raise AdmissionError(
                f"session was rejected by admission control: {self.reason}"
            )
        return self

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def results(self) -> Iterator[PeriodOutcome]:
        """Stream per-period outcomes, advancing the shared clock as needed.

        Yields one :class:`PeriodOutcome` per period, in order, classifying
        each at its deadline instant.  Driving the iterator runs the shared
        kernel forward, so other concurrent sessions advance too.  A
        cancelled session's stream ends at the cancellation time.
        """
        if self.service.closed:
            raise ServiceClosedError(
                "results() on a handle of a closed service (use the "
                "WorkloadResult close() returned)"
            )
        self.require_admitted()
        assert self.spec is not None
        spec = self.spec
        for k in range(1, spec.num_periods + 1):
            deadline = spec.deadline(k)
            if self.cancelled_at is not None and deadline > self.cancelled_at:
                return
            self.service.advance(deadline)
            yield self.period_outcome(k)

    def period_outcome(self, k: int) -> PeriodOutcome:
        """Classify period ``k`` as observed at its deadline instant.

        Pure read: the caller must already have advanced the world to (at
        least) the period's deadline — :meth:`results` does, and so does
        the serve daemon's pump, which harvests outcomes through exactly
        this method so the wire stream always matches the scored record.
        """
        self.require_admitted()
        assert self.spec is not None and self.gateway is not None
        chosen, on_time = self.gateway.best_delivery(k)
        return PeriodOutcome(
            k=k,
            deadline=self.spec.deadline(k),
            delivered=chosen is not None,
            on_time=on_time,
            value=chosen.value if chosen is not None else None,
            contributors=len(chosen.contributors) if chosen is not None else 0,
            delivered_at=chosen.time if chosen is not None else None,
            area_center=chosen.area_center if chosen is not None else None,
            error_bound=chosen.error_bound if chosen is not None else None,
        )

    def cancel(self) -> None:
        """Tear the session down mid-run (see :meth:`MobiQueryService.cancel`)."""
        self.service.cancel(self)

    def result(self) -> SessionResult:
        """The scored session (runs the service to completion if needed)."""
        if self.service.closed:
            raise ServiceClosedError(
                "result() on a handle of a closed service (use the "
                "WorkloadResult close() returned)"
            )
        self.require_admitted()
        if self._result is None:
            if self.status != STATUS_CANCELLED:
                self.service.run()
            self._result = self.service._score(self)
        return self._result

    def metrics(self) -> SessionMetrics:
        """The scored per-period metrics (convenience over :meth:`result`)."""
        return self.result().metrics

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        key = self.session_key
        return f"<SessionHandle {key if key else '-'} {self.status}>"


class SessionIndex:
    """The handles a backend issued, indexed so a submit costs O(live).

    Owned by :class:`MobiQueryService` and by the cluster router alike: the
    single-shard identity guarantee (a one-shard cluster assigns the exact
    id sequence a single service would) holds because both ask this class.
    It answers from state that follows the live sessions what used to take
    a walk over every handle ever issued (``tests/session_index_oracle.py``
    keeps those walks as the oracle):

    * ``_last_admitted`` maps a user id to the last session admitted under
      it.  Its keys are the ids auto-assignment skips — every id an
      *accepted* session ever used, cancelled included: their streams were
      consumed — and ``_lowest_free`` is the first id not among them.  An
      explicit id only collides with a live (accepted, uncancelled)
      session, and since it is admitted again only once every earlier
      session under it was cancelled, the last one is the only candidate.
    * ``_live`` holds, in submission order, the admitted sessions that can
      still be live at or after the owner's clock.  :meth:`live` drops the
      cancelled and the ended as it passes over them; time only advances,
      so neither can be live again.  Nothing else compacts the list: an
      index nobody queries keeps one reference per admitted session, as
      ``handles`` does.
    """

    def __init__(self) -> None:
        #: every handle issued (rejected ones too), in submission order
        self.handles: List[SessionHandle] = []
        self._last_admitted: Dict[int, SessionHandle] = {}
        self._lowest_free = 0
        self._live: List[SessionHandle] = []

    def assign_user_id(self, user_id: Optional[int]) -> int:
        """The id a submission runs under: the lowest free one, or the
        explicit ``user_id`` unless a live session already holds it."""
        if user_id is None:
            return self._lowest_free
        last = self._last_admitted.get(user_id)
        if last is not None and last.status != STATUS_CANCELLED:
            raise ValueError(
                f"user {user_id} already has a live session; cancel it first "
                f"or submit without a user_id"
            )
        return user_id

    def add(self, handle: SessionHandle) -> None:
        """Record a freshly issued handle (admitted or rejected)."""
        self.handles.append(handle)
        if not handle.accepted:
            return
        assert handle.spec is not None
        self._last_admitted[handle.spec.user_id] = handle
        while self._lowest_free in self._last_admitted:
            self._lowest_free += 1
        self._live.append(handle)

    def live(self, at: float, now: float) -> List[SessionHandle]:
        """Admitted, uncancelled sessions whose lifetime covers ``at``.

        ``now`` is the owner's clock.  A question about the past
        (``at < now``) may be about sessions already dropped from
        ``_live``, so it scans ``handles`` instead.
        """
        if at < now:
            candidates = [
                h
                for h in self.handles
                if h.accepted and h.status != STATUS_CANCELLED
            ]
        else:
            candidates = self._live = [
                h
                for h in self._live
                if h.status != STATUS_CANCELLED and h.spec.end_s > now
            ]
        return [h for h in candidates if h.spec.start_s <= at < h.spec.end_s]


class MobiQueryService:
    """Submit/stream/cancel façade over one shared simulated world.

    This is the single-world implementation of the
    :class:`~repro.api.backend.QueryBackend` protocol
    (``submit``/``advance``/``cancel``/``stats``/``close``); the sharded
    :class:`~repro.cluster.service.ClusterService` implements the same
    surface over many regional worlds.

    Args:
        config: the world description — service variant (``mode``), seed,
            horizon (``duration_s``), network and the protocol's ablation
            flags.  Per-user parameters (query, motion, profile pipeline)
            come from each :class:`QueryRequest`.
        admission: the admission policy (default accept-all).
        tracer: the world's tracer, handed to the channel
            :func:`~repro.net.network.build_network` creates (which makes
            a fresh one if omitted); every component reads it from there.
        faults: optional :class:`FaultPlan` to inject against this world.
            ``None`` (or an empty plan) is bit-identical to a service built
            before the fault plane existed: the dedicated ``"faults"`` RNG
            stream draws nothing and no event is scheduled.
    """

    def __init__(
        self,
        config: ExperimentConfig,
        admission: Optional[AdmissionPolicy] = None,
        tracer: Optional[Tracer] = None,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        self.config = config
        self.admission = admission or AcceptAllPolicy()
        self.sim = Simulator()
        self.streams = RandomStreams(config.seed)
        # De-align the shared beacon schedule from the query start: real
        # users issue queries at arbitrary phases of the PSM cycle.
        psm_offset_s = float(
            self.streams.stream("psm").uniform(0.0, config.network.sleep_period_s)
        )
        network_config = replace(config.network, psm_offset_s=psm_offset_s)
        self.network = build_network(self.sim, network_config, self.streams, tracer)
        self.tracer = self.network.tracer
        CcpProtocol().apply(self.network, self.streams)
        self.geo = GeoRouter(self.network)
        self.flood = FloodManager(self.network)
        self.protocol: Optional[MobiQueryProtocol] = None
        self.np_protocol: Optional[NoPrefetchProtocol] = None
        if config.mode in (MODE_JIT, MODE_GREEDY):
            self.protocol = MobiQueryProtocol(
                self.network,
                self.geo,
                MobiQueryConfig(
                    prefetch_policy=config.mode,
                    parent_upgrade=config.parent_upgrade,
                    redeliver_setups=config.redeliver_setups,
                ),
            )
        self.faults = faults if faults is not None else FaultPlan()
        self.fault_injector: Optional[FaultInjector] = None
        if not self.faults.world_empty:
            self.fault_injector = FaultInjector(self.faults, self.network, self.streams)
            self.fault_injector.start()
        #: multiresolution summary cache (:mod:`repro.approx`); created on
        #: the first approximate admission so exact-only runs never carry
        #: one — the bit-identity guarantee of ``accuracy="exact"``.
        self.summary_plane: Optional[SummaryPlane] = None
        self._sessions = SessionIndex()
        self._admitted_total = 0
        self._rejected_total = 0
        self._cancelled_total = 0
        self._completed = False
        self._closed = False
        self._closed_result: Optional[WorkloadResult] = None

    # ------------------------------------------------------------------
    # Introspection the policies and adapters need
    # ------------------------------------------------------------------
    @property
    def duration_s(self) -> float:
        """The service horizon (end of the simulated day)."""
        return self.config.duration_s

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has sealed the service."""
        return self._closed

    @property
    def handles(self) -> List[SessionHandle]:
        """Every handle ever issued (rejected ones too), in submission order."""
        return self._sessions.handles

    def admitted_count(self) -> int:
        """How many sessions were ever admitted (phase-slot counter)."""
        return self._admitted_total

    def admitted_handles(self) -> List[SessionHandle]:
        """Handles of every admitted session, in submission order."""
        return [h for h in self.handles if h.accepted]

    def unreleased_handles(self) -> List[SessionHandle]:
        """Admitted sessions not torn down yet (proxy still on the channel)."""
        return [h for h in self.handles if h.accepted and not h.released]

    def live_session_specs(self, at: float) -> List[SessionHandle]:
        """Admitted, uncancelled sessions whose lifetime covers time ``at``."""
        return self._sessions.live(at, self.sim.now)

    # ------------------------------------------------------------------
    # The lifecycle: submit / run / cancel / finalize
    # ------------------------------------------------------------------
    def submit(self, request: QueryRequest) -> SessionHandle:
        """Submit one query; returns its handle (possibly rejected).

        The request is validated, the user's motion resolved (synthesised
        if the request carries no path — policies need the motion to judge
        area overlap), and the admission policy asked.  A rejected request
        leaves the *kernel* untouched: no proxy joins the channel, no event
        is scheduled, no protocol state appears.  The one
        side effect of rejection is that a synthesised path has consumed
        draws from the user's mobility stream, so a resubmission without
        an explicit path walks a different (equally distributed) route.
        A start with no serviceable period left raises
        :class:`HorizonPassedError` before any of that: it draws nothing.
        """
        if self.config.mode == MODE_IDLE:
            raise ValueError("an idle-mode service accepts no queries")
        check_accuracy_served(self.config.mode, request.accuracy)
        if self._closed:
            raise ServiceClosedError(
                "submit() on a closed service (close() already sealed the run)"
            )
        if self._completed:
            raise ServiceClosedError(
                "the service horizon has passed (run finished)"
            )
        start_s = max(request.start_s, self.sim.now)
        horizon = self.duration_s
        if start_s > horizon - request.period_s + 1e-9:
            raise HorizonPassedError(
                f"session starts at {start_s:.1f}s but the service horizon is "
                f"{horizon:.1f}s — no serviceable period left"
            )
        user_id = self._sessions.assign_user_id(request.user_id)
        path = request.path
        if path is None:
            walk = request.walk or DEFAULT_WALK
            path = make_user_path(self.config, self.streams, user_id, walk)
        spec = self._build_spec(request, user_id, start_s)
        decision = self.admission.decide(spec, path, self)
        if not decision.admitted:
            handle = SessionHandle(self, request, STATUS_REJECTED, decision)
            self._sessions.add(handle)
            self._rejected_total += 1
            self.tracer.emit(
                "admission-rejected",
                self.sim.now,
                user=user_id,
                reason=decision.reason,
            )
            return handle
        if decision.start_offset_s:
            offset_start = start_s + decision.start_offset_s
            # Never let a phase offset push the session past its last
            # serviceable period; in that corner the original phase wins.
            if offset_start <= self.duration_s - request.period_s:
                spec = self._build_spec(request, user_id, offset_start)
        gateway = self._admit(request, spec, path)
        handle = SessionHandle(
            self, request, STATUS_ADMITTED, decision, spec, path, gateway
        )
        self._sessions.add(handle)
        self._admitted_total += 1
        return handle

    def _build_spec(
        self, request: QueryRequest, user_id: int, start_s: float
    ) -> QuerySpec:
        horizon = self.duration_s
        lifetime = request.lifetime_s
        if lifetime is None:
            lifetime = horizon - start_s
        else:
            lifetime = min(lifetime, horizon - start_s)
        return QuerySpec(
            attribute=request.attribute,
            aggregation=request.aggregation,
            radius_m=request.radius_m,
            period_s=request.period_s,
            freshness_s=request.freshness_s,
            lifetime_s=lifetime,
            user_id=user_id,
            start_s=start_s,
        )

    def _admit(
        self, request: QueryRequest, spec: QuerySpec, path: PiecewisePath
    ) -> BaseGateway:
        """Put the user's proxy on the channel and begin the one gateway
        the request's accuracy and the world's mode call for."""
        user_id = spec.user_id
        rng = self.streams.stream(user_stream("proxy", user_id))
        provider = None
        if request.accuracy == "exact" and self.config.mode != MODE_NP:
            # Can refuse the request's knobs: before the proxy joins.
            provider = make_profile_provider(
                self.config,
                path,
                self.streams,
                user_id,
                profile_mode=request.profile_mode,
                advance_time_s=request.advance_time_s,
                gps_error_m=request.gps_error_m,
                sampling_period_s=request.sampling_period_s,
            )
        proxy = build_proxy(user_id, path, self.network, rng)
        if request.accuracy != "exact":
            # Summary-served session: no prefetch chains, no floods, no
            # per-period trees — answers compose from the cached plane at
            # the user's actual position, so no profile provider either.
            gateway: BaseGateway = ApproxGateway(
                proxy,
                self.network,
                spec,
                self._ensure_summary_plane(),
                path,
                request.accuracy,
            )
        elif self.config.mode == MODE_NP:
            if self.np_protocol is None:
                self.np_protocol = NoPrefetchProtocol(
                    self.network, self.geo, self.flood
                )
            gateway = NoPrefetchGateway(
                proxy, self.network, spec, self.np_protocol, self.flood
            )
        else:
            assert self.protocol is not None and provider is not None
            gateway = MobiQueryGateway(
                proxy, self.network, spec, self.protocol, provider
            )
        gateway.begin()  # now, or at spec.start_s
        if self.fault_injector is not None:
            # Lets the gateway watchdog mark unrecoverable periods as
            # degraded; stays False in fault-free runs so ordinary watchdog
            # re-injections never count as degradation.
            gateway.faults_active = True
        return gateway

    def _ensure_summary_plane(self) -> SummaryPlane:
        """The world's summary plane, created on first approximate use.

        Creation is RNG-free and schedules nothing; once alive, the plane
        also overhears the exact protocol's report traffic so summaries
        sharpen on traffic that was flowing anyway.
        """
        if self.summary_plane is None:
            self.summary_plane = SummaryPlane(self.network)
            if self.protocol is not None:
                self.protocol.summary_observer = self.summary_plane
        return self.summary_plane

    def summary_answer(
        self,
        center: Vec2,
        radius_m: float,
        aggregation,
        accuracy: str = "coarse",
        freshness_s: float = float("inf"),
    ) -> Optional[SummaryAnswer]:
        """One ad-hoc answer from this world's summary plane.

        The cluster router composes these per-shard partials
        (associatively) into boundary-free answers; callers wanting
        staleness surfaced should pass their freshness bound.
        """
        return self._ensure_summary_plane().answer(
            center, radius_m, accuracy, freshness_s, aggregation
        )

    def cancel(self, handle: SessionHandle) -> None:
        """Tear down one session mid-run.

        The gateway closes — it goes silent, a start still pending is
        cancelled, and every piece of in-network state it set up is
        released (collector chains, tree states, cancel marks, buffered
        sleeper setups, flood dedup, summary drill state) — and the proxy
        endpoint leaves the channel.
        Cancelling a rejected, already-cancelled, or completed handle is a
        no-op — a session that ran to the horizon stays "completed".
        """
        if (
            not handle.accepted
            or handle.status in (STATUS_CANCELLED, STATUS_COMPLETED)
            or self._completed
        ):
            return
        self._teardown_session(handle)
        handle.status = STATUS_CANCELLED
        handle.cancelled_at = self.sim.now
        self._cancelled_total += 1

    def _teardown_session(self, handle: SessionHandle) -> None:
        """Release every piece of state keyed by one admitted session.

        The gateway releases what it set up and lets go of the proxy (MAC
        queue, radio, energy meter: nothing reads them again); the service
        takes it off the channel.  The closed gateway stays, for scoring.
        """
        gateway = handle.gateway
        assert gateway is not None and gateway.proxy is not None
        proxy_id = gateway.proxy.node_id
        handle.released = True
        gateway.close()  # lets go of the proxy
        self.network.channel.unregister_mobile(proxy_id)

    def release_session_state(self, handle: SessionHandle) -> None:
        """Release a *finished* session's proxy and in-network state.

        A session that was served its last period keeps residue around —
        its proxy listening on the channel, cached tree states, delivered
        batches — which is harmless in a batch run
        (the process exits) but makes an always-on daemon pay, frame by
        frame, for every user who has left.  The serve daemon therefore
        calls this the moment a session's last outcome is harvested (and,
        after ``close()``, for whatever was still live): the session is
        scored and the score cached — what ``result()`` and ``close()``
        return for it from then on — an admitted session becomes
        ``completed``, and the teardown ``cancel`` performs is applied,
        once.

        No-op for a rejected session, for one already torn down (cancelled,
        or released before) and for an admitted one whose last deadline is
        still ahead.  The service never calls it itself: in a batch run
        every proxy stays on the channel until ``close()``, which is what
        the result and event fingerprints pin.
        """
        if not handle.accepted or handle.released:
            return
        if handle.status == STATUS_ADMITTED:
            spec = handle.spec
            assert spec is not None
            if spec.deadline(spec.num_periods) > self.sim.now + 1e-9:
                return
            handle.status = STATUS_COMPLETED
        self._score(handle)
        self._teardown_session(handle)

    def advance(self, until: float) -> None:
        """Advance the shared kernel to absolute time ``until`` (idempotent;
        the backend verb)."""
        if until > self.sim.now:
            self.sim.run(until=until)

    def run(self) -> None:
        """Run the world to the service horizon (plus the straggler tail)."""
        self.advance(self.duration_s + RUN_TAIL_S)
        self._completed = True

    def finalize(self) -> WorkloadResult:
        """Score every admitted session (running to the horizon if needed).

        Cancelled sessions are scored over the periods that elapsed before
        their cancellation; everything else over the full horizon.
        """
        if not self._completed:
            self.run()
        sessions = [self._score(h) for h in self.admitted_handles()]
        for handle in self.admitted_handles():
            if handle.status == STATUS_ADMITTED:
                handle.status = STATUS_COMPLETED
        return WorkloadResult(sessions=sessions)

    def _score(self, handle: SessionHandle) -> SessionResult:
        if handle._result is None:
            gateway, spec = handle.gateway, handle.spec
            assert gateway is not None and spec is not None
            duration = self.duration_s
            if handle.cancelled_at is not None:
                duration = min(duration, handle.cancelled_at)
            handle._result = SessionResult(
                user_id=spec.user_id,
                query_id=spec.query_id,
                start_s=spec.start_s,
                metrics=build_session_metrics(
                    gateway,
                    self.network,
                    spec,
                    handle.path,
                    duration,
                ),
                deliveries=len(gateway.deliveries),
                degraded_periods=len(gateway.degraded_ks),
            )
        return handle._result

    def stats(self) -> BackendStats:
        """A uniform counter snapshot (the backend verb)."""
        channel = self.network.channel
        return BackendStats(
            now=self.sim.now,
            events_executed=self.sim.events_executed,
            frames_sent=channel.frames_sent,
            frames_collided=channel.frames_collided,
            frames_delivered=channel.frames_delivered,
            backbone_size=self.backbone_size,
            shards=1,
            submitted=len(self.handles),
            admitted=self._admitted_total,
            rejected=self._rejected_total,
            cancelled=self._cancelled_total,
        )

    def close(self) -> WorkloadResult:
        """Run to the horizon, score everything, seal the service.

        Idempotent: the scored result is cached on first close and later
        calls return it unchanged; ``submit`` after close raises.
        """
        if self._closed_result is None:
            self._closed_result = self.finalize()
        self._closed = True
        return self._closed_result

    # ------------------------------------------------------------------
    # Convenience metrics mirrors
    # ------------------------------------------------------------------
    @property
    def events_executed(self) -> int:
        return self.sim.events_executed

    @property
    def backbone_size(self) -> int:
        return len(self.network.active_nodes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<MobiQueryService mode={self.config.mode} seed={self.config.seed} "
            f"sessions={len(self.handles)} t={self.sim.now:.1f}>"
        )


__all__ = [
    "AdmissionError",
    "BackendStats",
    "MobiQueryService",
    "HorizonPassedError",
    "ServiceClosedError",
    "SessionHandle",
    "RUN_TAIL_S",
    "STATUS_ADMITTED",
    "STATUS_CANCELLED",
    "STATUS_COMPLETED",
    "STATUS_REJECTED",
    "make_profile_provider",
    "make_user_path",
    "user_stream",
    "build_session_metrics",
]
