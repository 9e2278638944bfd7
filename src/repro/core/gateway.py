"""Proxy-side query gateways.

The *query gateway* runs on the user's mobile device (paper Figure 1): it
issues the query with the current motion profile, re-injects prefetch
chains when a new profile arrives, launches cancel chases along abandoned
paths, and collects result messages.

Two gateways are provided: :class:`MobiQueryGateway` (the real service,
JIT or greedy prefetching per the protocol config) and
:class:`NoPrefetchGateway` (the NP baseline's per-period broadcast).  Both
record :class:`DeliveryRecord` events that the experiment runner converts
into per-period metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set

from ..geometry.shapes import Circle
from ..geometry.vec import Vec2
from ..mobility.profile import MotionProfile, ProfileProvider
from ..net.flooding import FloodManager
from ..net.network import Network
from ..net.node import MobileEndpoint, SensorNode
from ..net.packet import Frame
from ..sim.trace import Tracer
from .baseline import NoPrefetchProtocol
from .messages import (
    INJECT_SIZE_BYTES,
    NP_QUERY_SIZE_BYTES,
    InjectMessage,
    NpQueryMessage,
    NpReportMessage,
    ResultMessage,
)
from .query import AggregateState, QuerySpec
from .service import MobiQueryProtocol


@dataclass(frozen=True)
class DeliveryRecord:
    """One observed result state at the proxy.

    ``area_center`` is the centre of the area the service actually queried
    for this period (the pickup point for MobiQuery, the issue position for
    the NP baseline); the paper's data-fidelity denominator is the node set
    of that area.
    """

    k: int
    time: float
    value: Optional[float]
    contributors: FrozenSet[int]
    area_center: Optional[Vec2] = None
    #: True when the result was salvaged through fault recovery
    #: (collector re-election) rather than the normal collection path
    degraded: bool = False
    #: declared worst-case |answer - exact| (approximate sessions only)
    error_bound: Optional[float] = None


class BaseGateway:
    """The proxy side of one session: lifecycle and delivery bookkeeping.

    A gateway is the one owner of what its session sets up: :meth:`begin`
    starts it at ``spec.start_s`` — the subclass's ``start()`` registers
    the session with its in-network engine before anything is scheduled —
    and :meth:`close` stops it and releases the pending start and the
    engine's record of the session (:meth:`_release`).  An engine stores
    nothing for a key that is not registered, so nothing sent before
    ``start()`` or still in flight after ``close()`` can leave state behind.
    """

    def __init__(
        self,
        proxy: MobileEndpoint,
        network: Network,
        spec: QuerySpec,
        tracer: Optional[Tracer] = None,
    ) -> None:
        #: None once closed: every callback returns at ``closed`` before
        #: reading it, and nothing else reads a finished session's device
        self.proxy: Optional[MobileEndpoint] = proxy
        self.network = network
        self.spec = spec
        self.tracer = tracer if tracer is not None else network.tracer
        self.sim = network.sim
        self.deliveries: List[DeliveryRecord] = []
        self.last_delivered_k = 0
        #: set by :meth:`close`; a closed gateway ignores every scheduled
        #: callback and frame so a cancelled session goes silent immediately
        self.closed = False
        #: the kernel event of a start deferred to ``spec.start_s``, kept
        #: so :meth:`close` can cancel it
        self._start_event = None
        #: flipped on by the service when a non-empty fault plan is active;
        #: gates the watchdog's degraded-period accounting so fault-free
        #: runs never mark periods degraded
        self.faults_active = False
        #: periods the fault-recovery machinery had to intervene on (or
        #: knows it lost); surfaced as ``SessionResult.degraded_periods``
        self.degraded_ks: Set[int] = set()

    def begin(self) -> None:
        """Start the session: now if ``spec.start_s`` has passed, else at
        ``start_s`` through one kernel event that :meth:`close` cancels."""
        if self.spec.start_s <= self.sim.now:
            self.start()
        else:
            self._start_event = self.sim.schedule_at(self.spec.start_s, self.start)

    @property
    def start_pending(self) -> bool:
        """Whether a deferred start is still waiting for ``spec.start_s``."""
        return self._start_event is not None and self._start_event.pending

    def close(self) -> None:
        """Stop the session and release what it set up (cancel/teardown).

        A start still pending is cancelled, so a session closed before
        ``start_s`` never starts; other kernel events the gateway owns
        still surface but no-op against the flag.  No new traffic, profile
        adoptions, or delivery records are produced after this call, the
        in-network engine holds nothing for the session, the proxy is let
        go of (the delivery records stay, for scoring), and a second call
        changes nothing.
        """
        if self.closed:
            return
        self.closed = True
        if self._start_event is not None:
            self._start_event.cancel()  # a no-op once it has fired
        self.tracer.emit(
            "session-closed",
            self.sim.now,
            user=self.spec.user_id,
            query=self.spec.query_id,
        )
        self._release()
        self.proxy = None

    def _release(self) -> None:
        """Drop what this gateway set up or held for the live session only."""

    @property
    def user_id(self) -> int:
        """The owning user (from the query spec)."""
        return self.spec.user_id

    @property
    def session_key(self) -> "tuple[int, int]":
        """The ``(user_id, query_id)`` session this gateway serves."""
        return self.spec.session_key

    def record_delivery(
        self,
        k: int,
        value: Optional[float],
        contributors: FrozenSet[int],
        area_center: Optional[Vec2] = None,
        degraded: bool = False,
        error_bound: Optional[float] = None,
    ) -> None:
        """Append a delivery observation at the current time."""
        record = DeliveryRecord(
            k=k,
            time=self.sim.now,
            value=value,
            contributors=contributors,
            area_center=area_center,
            degraded=degraded,
            error_bound=error_bound,
        )
        self.deliveries.append(record)
        if degraded:
            self.degraded_ks.add(k)
        self.last_delivered_k = max(self.last_delivered_k, k)
        self.tracer.emit(
            "delivery",
            self.sim.now,
            k=k,
            contributors=len(contributors),
        )

    def deliveries_for(self, k: int) -> List[DeliveryRecord]:
        """All delivery observations for period ``k`` in time order."""
        return sorted(
            (d for d in self.deliveries if d.k == k), key=lambda d: d.time
        )

    def best_delivery(self, k: int) -> "tuple[Optional[DeliveryRecord], bool]":
        """The observation the user keeps for period ``k``, and whether it
        met the deadline.

        After a profile correction both the superseded and the new
        collector may deliver: the user keeps the best on-time result
        (most contributors, then latest), else the first late one, else
        ``None``.  The streamed :class:`~repro.api.requests.PeriodOutcome`
        and the scored :class:`~repro.core.metrics.PeriodRecord` both come
        from here, so they cannot disagree.
        """
        observations = self.deliveries_for(k)
        deadline = self.spec.deadline(k)
        on_time = [d for d in observations if d.time <= deadline + 1e-9]
        if on_time:
            return max(on_time, key=lambda d: (len(d.contributors), d.time)), True
        return (observations[0] if observations else None), False


class MobiQueryGateway(BaseGateway):
    """Gateway for the MobiQuery service (JIT or greedy prefetching)."""

    #: attempts at injecting through different nearby backbone nodes
    _INJECT_CANDIDATES = 3
    #: delay before re-trying an injection that failed at the MAC level
    _INJECT_RETRY_S = 0.2
    #: keep an existing query tree while the new profile moves its pickup
    #: point by less than this.  An intact tree whose area trails the user
    #: by a couple dozen metres still answers the query it was asked (and
    #: stays within proxy radio reach), whereas rebuilding an imminent tree
    #: forfeits the sleeping leaves outside the overlap — they cannot be
    #: re-woken before the deadline.  Genuine heading changes blow through
    #: this tolerance within a couple of periods and trigger the paper's
    #: greedy catch-up immediately.
    _REPLACE_TOLERANCE_M = 25.0

    def __init__(
        self,
        proxy: MobileEndpoint,
        network: Network,
        spec: QuerySpec,
        protocol: MobiQueryProtocol,
        provider: ProfileProvider,
        tracer: Optional[Tracer] = None,
    ) -> None:
        super().__init__(proxy, network, spec, tracer)
        self.protocol = protocol
        #: read only by :meth:`start`; None once closed
        self.provider: Optional[ProfileProvider] = provider
        self.current_profile: Optional[MotionProfile] = None
        self._last_reinject_at = -float("inf")
        proxy.register_handler("mq-result", self._on_result)

    def _release(self) -> None:
        self.protocol.release_session(self.session_key)
        self.provider = None

    def start(self) -> None:
        """Register with the engine and schedule all profile arrivals; the
        first one issues the query.

        A session starting mid-run (``start_s`` > 0) collapses every
        arrival that predates its origin into the single newest one: the
        proxy would have held exactly that profile at session start, and
        replaying the full pre-start history would inject a burst of
        mutually-superseding chains (and cancel chases) at ``start_s``.
        """
        arrivals = self.provider.arrivals()
        if not arrivals:
            raise ValueError("profile provider produced no profiles")
        self.protocol.register_session(self.session_key)
        origin = max(self.sim.now, self.spec.start_s)
        past = [a for a in arrivals if a.time < origin]
        if past:
            newest = max(past, key=lambda a: (a.time, a.profile.tg))
            self.sim.schedule_at(origin, self._on_profile, newest.profile)
        for arrival in arrivals:
            if arrival.time >= origin:
                self.sim.schedule_at(arrival.time, self._on_profile, arrival.profile)
        # First watchdog relative to the *effective* origin: for a session
        # registered after its nominal start the collapsed profile adopts
        # at `origin`, and a watchdog in the same instant would see only
        # silence and immediately re-inject a superseding chain.
        self.sim.schedule_at(origin + 1.3 * self.spec.period_s, self._watchdog)

    def _watchdog(self) -> None:
        """Recover a dead prefetch chain.

        If a prefetch or its tree vanished en route (geo drop, collision
        streak, cancel/prefetch race), no collector ever answers again and
        the query would silently die.  The user-visible symptom is missing
        results, so the gateway re-injects the current profile when two
        consecutive deadlines pass without any delivery.
        """
        if self.closed:
            return
        now = self.sim.now
        k_due = self.spec.period_index(now)
        if (
            self.current_profile is not None
            and k_due >= 2
            and self.last_delivered_k < k_due - 1
            and now - self._last_reinject_at > 2.0 * self.spec.period_s
        ):
            self._last_reinject_at = now
            k_next = k_due + 1
            if k_next <= self.spec.num_periods:
                if self.faults_active:
                    # Under an active fault plan the silent periods the
                    # watchdog is recovering from count as degraded (they
                    # are unrecoverable: their deadlines already passed).
                    for k in range(self.last_delivered_k + 1, k_due + 1):
                        self.degraded_ks.add(k)
                self.tracer.emit("watchdog-reinject", now, k_next=k_next)
                # Fresh generation: the re-injected chain must supersede
                # whatever half-dead state the silence came from.
                self.current_profile = self.current_profile.regenerated()
                self._inject(self.current_profile, k_next, None)
        if k_due + 1 <= self.spec.num_periods:
            self.sim.schedule_at(
                self.spec.deadline(k_due + 1) + 0.3 * self.spec.period_s,
                self._watchdog,
            )

    # ------------------------------------------------------------------
    # Profile handling
    # ------------------------------------------------------------------
    def _on_profile(self, profile: MotionProfile) -> None:
        if self.closed:
            return
        previous = self.current_profile
        if previous is not None and profile.tg < previous.tg:
            return  # stale: generated from older knowledge than the current
        # Stamp a fresh generation: adoption order defines the in-network
        # supersede order, even across watchdog re-injections.
        profile = profile.regenerated()
        self.current_profile = profile
        now = self.sim.now
        k_next = self.spec.period_index(now) + 1
        while k_next <= self.spec.num_periods and self.spec.deadline(k_next) <= now:
            k_next += 1
        if k_next > self.spec.num_periods:
            return
        k_start = self._injection_start_period(previous, profile, k_next)
        if k_start > self.spec.num_periods:
            return  # the old chain still predicts everything well enough
        self.tracer.emit(
            "profile-adopted",
            now,
            gen=profile.generation,
            advance=profile.advance_time,
            k_next=k_start,
        )
        self._inject(profile, k_start, previous)

    def _injection_start_period(
        self,
        previous: Optional[MotionProfile],
        profile: MotionProfile,
        k_next: int,
    ) -> int:
        """Where the replacement prefetch chain should start.

        Two rules:

        * never before the new profile takes effect — a profile delivered
          with positive advance time describes the *future* leg, and the
          old profile remains authoritative until ``ts``;
        * skip periods the old profile still predicts within tolerance —
          their trees are fine where they are.  The first genuinely
          diverged period starts the chain, which is the paper's greedy
          catch-up when a real motion change invalidated everything.
        """
        k = k_next
        while k <= self.spec.num_periods and self.spec.deadline(k) < profile.ts:
            k += 1
        if previous is None:
            return k
        while k <= self.spec.num_periods:
            deadline = self.spec.deadline(k)
            drift = previous.position_at(deadline).distance_to(
                profile.position_at(deadline)
            )
            if drift > self._REPLACE_TOLERANCE_M:
                return k
            k += 1
        return k  # nothing diverged: keep the old chain untouched

    def _inject(
        self,
        profile: MotionProfile,
        start_k: int,
        cancel_profile: Optional[MotionProfile],
        attempt: int = 0,
    ) -> None:
        if self.closed:
            return
        candidates = self._injection_candidates()
        if not candidates:
            self.sim.schedule(
                self._INJECT_RETRY_S, self._inject, profile, start_k, cancel_profile, attempt
            )
            return
        target = candidates[min(attempt, len(candidates) - 1)]
        message = InjectMessage(
            spec=self.spec,
            profile=profile,
            start_k=start_k,
            proxy_id=self.proxy.node_id,
        )
        frame = Frame(
            kind="mq-inject",
            src=self.proxy.node_id,
            dst=target.node_id,
            size_bytes=INJECT_SIZE_BYTES,
            payload=message,
        )

        def on_done(success: bool) -> None:
            if self.closed:
                return
            if success:
                if cancel_profile is not None:
                    self.protocol.start_cancel_chain(
                        target, self.spec, cancel_profile, start_k
                    )
                return
            if attempt + 1 < self._INJECT_CANDIDATES:
                self._inject(profile, start_k, cancel_profile, attempt + 1)
            else:
                self.sim.schedule(
                    self._INJECT_RETRY_S,
                    self._inject,
                    profile,
                    start_k,
                    cancel_profile,
                    0,
                )

        self.proxy.send(frame, on_done)

    def _injection_candidates(self) -> List[SensorNode]:
        """Backbone nodes in radio range of the proxy, nearest first."""
        position = self.proxy.position
        in_range = self.network.active_nodes_in_disk(
            position, self.network.config.comm_range_m
        )
        in_range.sort(key=lambda n: n.position.distance_sq_to(position))
        return in_range

    # ------------------------------------------------------------------
    # Result reception
    # ------------------------------------------------------------------
    def _on_result(self, proxy: MobileEndpoint, frame: Frame) -> None:
        if self.closed:
            return
        msg: ResultMessage = frame.payload
        if (msg.user_id, msg.query_id) != self.spec.session_key:
            return
        self.record_delivery(
            msg.k,
            msg.aggregate.value(self.spec.aggregation),
            frozenset(msg.aggregate.contributors),
            area_center=msg.pickup,
            degraded=msg.degraded,
        )


class NoPrefetchGateway(BaseGateway):
    """Gateway for the NP baseline: broadcast each period, gather reports."""

    def __init__(
        self,
        proxy: MobileEndpoint,
        network: Network,
        spec: QuerySpec,
        protocol: NoPrefetchProtocol,
        flood: FloodManager,
        tracer: Optional[Tracer] = None,
    ) -> None:
        super().__init__(proxy, network, spec, tracer)
        self.protocol = protocol
        self.flood = flood
        self._partials: Dict[int, AggregateState] = {}
        self._issue_positions: Dict[int, Vec2] = {}
        self._flood_ids: List[int] = []
        proxy.register_handler("np-report", self._on_report)

    def _release(self) -> None:
        for flood_id in self._flood_ids:
            self.flood.release(flood_id)
        self._flood_ids.clear()
        self.protocol.release_session(self.session_key)

    def start(self) -> None:
        """Register with the engine and schedule one query broadcast at the
        start of every period."""
        self.protocol.register_session(self.session_key)
        for k in range(1, self.spec.num_periods + 1):
            issue_at = self.spec.deadline(k) - self.spec.period_s + 1e-3
            self.sim.schedule_at(max(self.sim.now, issue_at), self._issue, k)

    def _issue(self, k: int) -> None:
        if self.closed:
            return
        position = self.proxy.position
        self._issue_positions[k] = position
        message = NpQueryMessage(
            query_id=self.spec.query_id,
            k=k,
            deadline=self.spec.deadline(k),
            freshness_s=self.spec.freshness_s,
            proxy_id=self.proxy.node_id,
            issue_position=position,
            radius_m=self.spec.radius_m,
            user_id=self.spec.user_id,
        )
        envelope = self.flood.start_flood(
            area=Circle(position, self.spec.radius_m),
            inner_kind="np-query",
            inner_payload=message,
            inner_size=NP_QUERY_SIZE_BYTES,
        )
        self._flood_ids.append(envelope.flood_id)
        self.tracer.emit("np-issue", self.sim.now, k=k)
        self.proxy.send(self.flood.make_frame(self.proxy.node_id, envelope))

    def _on_report(self, proxy: MobileEndpoint, frame: Frame) -> None:
        if self.closed:
            return
        msg: NpReportMessage = frame.payload
        if (msg.user_id, msg.query_id) != self.spec.session_key:
            return
        partial = self._partials.setdefault(msg.k, AggregateState())
        before = len(partial.contributors)
        partial.merge(AggregateState.from_reading(msg.node_id, msg.value))
        if len(partial.contributors) == before:
            return  # duplicate report
        self.record_delivery(
            msg.k,
            partial.value(self.spec.aggregation),
            frozenset(partial.contributors),
            area_center=self._issue_positions.get(msg.k),
        )
