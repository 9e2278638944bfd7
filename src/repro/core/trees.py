"""Per-node protocol state for query trees and collector duty.

A *query tree* exists per (query, period): rooted at the collector node for
pickup point ``k``, spanning the backbone nodes of query area ``k``, with
duty-cycled nodes as leaves.  :class:`TreeNodeState` is what one node
stores for one tree — exactly the "storage cost of query states" the
paper's Section 5.2 analyses; the storage metric counts these objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..geometry.vec import Vec2
from ..mobility.profile import MotionProfile
from ..sim.kernel import EventHandle
from .query import AggregateState, QuerySpec


@dataclass
class TreeNodeState:
    """One node's membership in one query tree."""

    query_id: int
    k: int
    node_id: int
    parent_id: Optional[int]
    collector_id: int
    pickup: Vec2
    deadline: float
    created_at: float
    profile_generation: int = 0
    partial: AggregateState = field(default_factory=AggregateState)
    sent: bool = False
    send_timer: Optional[EventHandle] = None
    user_id: int = 0

    @property
    def session_key(self) -> "tuple[int, int]":
        """The owning ``(user_id, query_id)`` session."""
        return (self.user_id, self.query_id)

    def cancel_timer(self) -> None:
        """Stop the pending sub-deadline send, if any."""
        if self.send_timer is not None:
            self.send_timer.cancel()
            self.send_timer = None


@dataclass
class CollectorState:
    """Collector duty for pickup point ``k`` of one query."""

    spec: QuerySpec
    profile: MotionProfile
    k: int
    node_id: int
    proxy_id: int
    assigned_at: float
    cancelled: bool = False
    result_sent: bool = False
    forward_timer: Optional[EventHandle] = None
    result_timer: Optional[EventHandle] = None
    #: times collector duty moved to another node after a crash (fault
    #: recovery); bounded by the protocol's re-election limit
    reelect_attempts: int = 0
    #: set when this period's result was salvaged through re-election —
    #: carried on the result message and surfaced as a degraded period
    degraded: bool = False

    @property
    def session_key(self) -> "tuple[int, int]":
        """The owning ``(user_id, query_id)`` session."""
        return self.spec.session_key

    @property
    def deadline(self) -> float:
        """The delivery deadline this collector serves."""
        return self.spec.deadline(self.k)

    def cancel_timers(self) -> None:
        """Stop the pending prefetch forward and result delivery."""
        if self.forward_timer is not None:
            self.forward_timer.cancel()
            self.forward_timer = None
        if self.result_timer is not None:
            self.result_timer.cancel()
            self.result_timer = None
