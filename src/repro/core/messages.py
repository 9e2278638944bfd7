"""Protocol messages exchanged by MobiQuery components.

Each message type documents its role in the protocol and its modelled wire
size (sizes drive airtime, and airtime drives the contention the paper
analyses — the prefetch message is 60 bytes in the paper's own Section 5.2
estimate).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..geometry.shapes import Circle
from ..geometry.vec import Vec2
from ..mobility.profile import MotionProfile
from .query import AggregateState, QuerySpec

#: paper Section 5.2: "The size of a prefetch message is 60 bytes."
PREFETCH_SIZE_BYTES = 60
INJECT_SIZE_BYTES = 70
SETUP_SIZE_BYTES = 44
#: incremental bytes per setup entry in a batched sleeper delivery
SETUP_BATCH_ENTRY_BYTES = 30
SETUP_BATCH_BASE_BYTES = 12
REPORT_SIZE_BYTES = 28
RESULT_SIZE_BYTES = 36
CANCEL_SIZE_BYTES = 20
NP_QUERY_SIZE_BYTES = 48
NP_REPORT_SIZE_BYTES = 24


@dataclass(frozen=True)
class InjectMessage:
    """Proxy -> nearest backbone node: start (or restart) a prefetch chain.

    Carries the query spec and the motion profile the chain should follow,
    plus the first pickup index to target.
    """

    spec: QuerySpec
    profile: MotionProfile
    start_k: int
    proxy_id: int


@dataclass(frozen=True)
class PrefetchMessage:
    """Collector -> next pickup point (area anycast): forewarn query area k."""

    spec: QuerySpec
    profile: MotionProfile
    k: int
    proxy_id: int


@dataclass(frozen=True)
class SetupMessage:
    """Collector -> query area (flood): build the query tree for period k.

    ``pickup`` is ``area.center`` and the reference point for the
    sub-deadline formula (eq. 1): nodes farther from the collector time out
    earlier.
    """

    query_id: int
    k: int
    collector_id: int
    pickup: Vec2
    area: Circle
    deadline: float
    freshness_s: float
    pickup_radius_m: float
    profile_generation: int
    aggregation_attribute: str
    user_id: int = 0

    @property
    def session_key(self) -> "tuple[int, int]":
        return (self.user_id, self.query_id)


@dataclass(frozen=True)
class ReportMessage:
    """Child -> parent (unicast): partial aggregate for (query, period)."""

    query_id: int
    k: int
    child_id: int
    partial: AggregateState
    user_id: int = 0


@dataclass(frozen=True)
class ResultMessage:
    """Collector -> user proxy: the aggregated result for period k.

    ``pickup`` is the centre of the area that was actually queried; the
    paper's data-fidelity metric is computed over that area.
    """

    query_id: int
    k: int
    collector_id: int
    aggregate: AggregateState
    sent_at: float
    pickup: Vec2
    user_id: int = 0
    #: True when collector duty had to be re-elected after a crash — the
    #: gateway marks the period as degraded in the session report
    degraded: bool = False


@dataclass(frozen=True)
class CancelMessage:
    """Along an abandoned predicted path: tear down stale prefetch state.

    ``misses`` counts consecutive pickup points with no matching state;
    the chain stops after two misses (the prefetch never got that far).
    ``spec`` and ``profile`` travel by reference so each hop can compute the
    next stale pickup point; on the wire only the generation and pickup
    index would be needed (the spec/profile are already cached along the
    chain), which is what :data:`CANCEL_SIZE_BYTES` models.
    """

    query_id: int
    profile_generation: int
    k: int
    misses: int = 0
    spec: Optional[QuerySpec] = None
    profile: Optional[MotionProfile] = None
    user_id: int = 0


@dataclass(frozen=True)
class NpQueryMessage:
    """No-Prefetching baseline: per-period query flooded from the user.

    ``radius_m`` carries the spatial constraint so PSM-buffered re-delivery
    at beacon windows can also enforce it (the flood scope alone only
    covers the direct path).
    """

    query_id: int
    k: int
    deadline: float
    freshness_s: float
    proxy_id: int
    issue_position: Vec2
    radius_m: float
    user_id: int = 0


@dataclass(frozen=True)
class NpReportMessage:
    """No-Prefetching baseline: one node's reading routed back to the user."""

    query_id: int
    k: int
    node_id: int
    value: float
    user_id: int = 0
