"""The per-user pieces of a session: its proxy endpoint and its score.

:func:`build_proxy` puts a user's device on the shared radio channel
(id ``PROXY_ID_BASE + user_id``); :class:`SessionResult` is one session
scored after the run.  What ties a proxy to a gateway — and owns both
until the session is torn down — is the service's
:class:`~repro.api.service.SessionHandle`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.metrics import SessionMetrics
from ..mobility.path import PiecewisePath
from ..net.network import Network
from ..net.node import MobileEndpoint

#: proxy node ids start here; user ``u`` gets ``PROXY_ID_BASE + u``
PROXY_ID_BASE = 100_000


def proxy_id_for(user_id: int) -> int:
    """The proxy endpoint id reserved for ``user_id``."""
    if user_id < 0:
        raise ValueError(f"user_id must be >= 0, got {user_id}")
    return PROXY_ID_BASE + user_id


def build_proxy(
    user_id: int,
    path: PiecewisePath,
    network: Network,
    rng: np.random.Generator,
) -> MobileEndpoint:
    """Create and register the user's proxy device on the shared channel."""
    proxy = MobileEndpoint(
        node_id=proxy_id_for(user_id),
        channel=network.channel,
        rng=rng,
        position_fn=path.position_at,
        max_speed_mps=path.max_speed(),
        segment_fn=path.segment_at,
    )
    network.channel.register_mobile(proxy)
    return proxy


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
