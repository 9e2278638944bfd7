"""Proxy-side gateway for approximate (summary-served) sessions.

An approximate session never runs the collection machinery: no inject,
no prefetch chains, no setup floods, no per-period trees.  The proxy
overhears the summary digests backbone nodes piggyback on their PSM
beacons, so each period's answer is composed locally from the cached
cells covering the query disk — zero frames on the shared channel.

The price is accuracy, and the gateway is honest about it: every
delivery carries the plane's declared ``error_bound``, and a period
answered from summaries older than the session's freshness bound is
recorded *degraded* (surfaced as ``SessionResult.degraded_periods``)
rather than silently stale.
"""

from __future__ import annotations

from ..core.gateway import BaseGateway
from ..core.query import QuerySpec
from ..mobility.path import PiecewisePath
from ..net.network import Network
from ..net.node import MobileEndpoint
from .plane import SummaryPlane

#: answers are composed just before the deadline so the freshest beacon
#: snapshot is used; the guard keeps the delivery strictly on-time
_ANSWER_GUARD_S = 1e-3


class ApproxGateway(BaseGateway):
    """Gateway that answers every period from the summary plane."""

    def __init__(
        self,
        proxy: MobileEndpoint,
        network: Network,
        spec: QuerySpec,
        plane: SummaryPlane,
        path: PiecewisePath,
        accuracy: str,
    ) -> None:
        super().__init__(proxy, network, spec)
        self.plane = plane
        self.path = path
        self.accuracy = accuracy

    def start(self) -> None:
        """Register with the plane and schedule one answer per period."""
        self.plane.register_session(self.session_key, self.accuracy)
        self.tracer.emit(
            "approx-start",
            self.sim.now,
            user=self.spec.user_id,
            query=self.spec.query_id,
            accuracy=self.accuracy,
        )
        for k in range(1, self.spec.num_periods + 1):
            answer_at = self.spec.deadline(k) - _ANSWER_GUARD_S
            self.sim.schedule_at(max(self.sim.now, answer_at), self._answer, k)

    def _answer(self, k: int) -> None:
        if self.closed:
            return
        deadline = self.spec.deadline(k)
        center = self.path.position_at(deadline)
        answer = self.plane.answer(
            center,
            self.spec.radius_m,
            self.accuracy,
            self.spec.freshness_s,
            self.spec.aggregation,
            session_key=self.session_key,
        )
        if answer is None:
            return  # no summarised data covers the disk: the period misses
        self.record_delivery(
            k,
            answer.value,
            answer.contributor_ids,
            area_center=center,
            degraded=answer.degraded,
            error_bound=answer.error_bound,
        )

    def _release(self) -> None:
        self.plane.release_session(self.session_key)
