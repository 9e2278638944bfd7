"""Per-user session wiring: proxy endpoint + gateway + scoring.

A :class:`UserSession` is the mobile-user end of one query session in a
multi-user workload: the user's true motion path, their proxy device on
the shared radio channel, and the gateway that issues the query and
collects results.  The in-network side (protocol engines, backbone) is
shared across all sessions; everything here is strictly per user.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.gateway import BaseGateway
from ..core.metrics import SessionMetrics, build_session_metrics
from ..core.query import QuerySpec
from ..mobility.path import PiecewisePath
from ..mobility.profile import ProfileProvider
from ..net.network import Network
from ..net.node import MobileEndpoint
from ..sim.trace import Tracer

#: proxy node ids start here; user ``u`` gets ``PROXY_ID_BASE + u``
PROXY_ID_BASE = 100_000


def proxy_id_for(user_id: int) -> int:
    """The proxy endpoint id reserved for ``user_id``."""
    if user_id < 0:
        raise ValueError(f"user_id must be >= 0, got {user_id}")
    return PROXY_ID_BASE + user_id


@dataclass(frozen=True)
class UserPlan:
    """Everything needed to spawn one user: identity, motion, query.

    ``spec.user_id`` must equal ``user_id`` (validated here, so protocol
    state keyed by ``(user_id, query_id)`` always matches the plan);
    ``spec.start_s`` is the session's start time.
    """

    user_id: int
    spec: QuerySpec
    path: PiecewisePath
    provider: Optional[ProfileProvider] = None

    def __post_init__(self) -> None:
        if self.spec.user_id != self.user_id:
            raise ValueError(
                f"plan for user {self.user_id} carries a spec owned by "
                f"user {self.spec.user_id}"
            )


def build_proxy(
    plan: UserPlan,
    network: Network,
    rng: np.random.Generator,
    tracer: Optional[Tracer] = None,
) -> MobileEndpoint:
    """Create and register the user's proxy device on the shared channel."""
    proxy = MobileEndpoint(
        node_id=proxy_id_for(plan.user_id),
        sim=network.sim,
        channel=network.channel,
        rng=rng,
        position_fn=plan.path.position_at,
        mac_config=network.config.mac,
        tracer=tracer,
        max_speed_mps=plan.path.max_speed(),
        segment_fn=plan.path.segment_at,
    )
    network.channel.register_mobile(proxy)
    return proxy


@dataclass
class UserSession:
    """One user's live session: plan + proxy + gateway."""

    plan: UserPlan
    proxy: MobileEndpoint
    gateway: BaseGateway

    @property
    def user_id(self) -> int:
        return self.plan.user_id

    @property
    def spec(self) -> QuerySpec:
        return self.plan.spec

    def finalize(
        self,
        network: Network,
        duration_s: float,
        fidelity_threshold: float = 0.95,
    ) -> "SessionResult":
        """Score the session after the run completed."""
        metrics = build_session_metrics(
            self.gateway,
            network,
            self.spec,
            self.plan.path,
            duration_s,
            fidelity_threshold=fidelity_threshold,
        )
        return SessionResult(
            user_id=self.user_id,
            query_id=self.spec.query_id,
            start_s=self.spec.start_s,
            metrics=metrics,
            deliveries=len(self.gateway.deliveries),
            degraded_periods=len(self.gateway.degraded_ks),
        )


@dataclass(frozen=True)
class SessionResult:
    """One user's scored session."""

    user_id: int
    query_id: int
    start_s: float
    metrics: SessionMetrics
    deliveries: int
    #: periods the fault-recovery machinery intervened on (collector
    #: re-election, watchdog recovery under an active fault plan); always
    #: 0 in fault-free runs
    degraded_periods: int = 0

    @property
    def success_ratio(self) -> float:
        return self.metrics.success_ratio()

    @property
    def mean_fidelity(self) -> float:
        return self.metrics.mean_fidelity()
