"""Spatiotemporal query model.

A spatiotemporal query is the paper's six-tuple
``(α, F, A(Pu(t)), Tperiod, Tfresh, Td)``: an attribute, an aggregation
function, a query area relative to the user's position, the result period,
the data-freshness bound, and the query lifetime.  The k-th result is due
at ``k * Tperiod`` and must aggregate readings taken no earlier than
``k * Tperiod - Tfresh``.

The query area is the paper's Section 3 disk: a
:class:`~repro.geometry.shapes.Circle` of radius ``Rq`` centred on the
user's (predicted) position, built by :meth:`QuerySpec.area_at`.  Every
node-side area test — tree membership, the collector's own reading, the
fidelity denominator — goes through that circle's ``contains``.

:class:`AggregateState` is the partial aggregate that flows up the query
tree (TAG-style): it carries enough sufficient statistics to finalize any
supported aggregation function, plus the contributor id set used by the
fidelity metric.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Optional, Set

from ..geometry.shapes import Circle
from ..geometry.vec import Vec2


class Aggregation(enum.Enum):
    """In-network aggregation functions ``F`` supported by the service."""

    MIN = "min"
    MAX = "max"
    AVG = "avg"
    SUM = "sum"
    COUNT = "count"


_query_ids = itertools.count(1)


@dataclass(frozen=True)
class QuerySpec:
    """The paper's query six-tuple plus an identity.

    Attributes:
        attribute: the sensor attribute ``α`` (e.g. ``"temperature"``).
        aggregation: the aggregation function ``F``.
        radius_m: query-area radius ``Rq`` around the user.
        period_s: ``Tperiod`` — one result is due every period.
        freshness_s: ``Tfresh`` — readings may be at most this old when the
            result is delivered.
        lifetime_s: ``Td`` — the query session length.
        query_id: unique id (auto-assigned).
        user_id: owning mobile user.  All in-network protocol state is
            keyed by ``(user_id, query_id)`` so concurrent sessions from
            different users never clobber each other.
        start_s: session origin — the k-th deadline falls at
            ``start_s + k * period_s``, which lets a multi-user workload
            stagger session starts on one shared kernel clock.
    """

    attribute: str = "temperature"
    aggregation: Aggregation = Aggregation.AVG
    radius_m: float = 150.0
    period_s: float = 2.0
    freshness_s: float = 1.0
    lifetime_s: float = 400.0
    query_id: int = field(default_factory=lambda: next(_query_ids))
    user_id: int = 0
    start_s: float = 0.0

    def __post_init__(self) -> None:
        if self.radius_m <= 0:
            raise ValueError("query radius must be > 0")
        if self.period_s <= 0:
            raise ValueError("query period must be > 0")
        if not 0 < self.freshness_s:
            raise ValueError("freshness bound must be > 0")
        if self.lifetime_s < self.period_s:
            raise ValueError("lifetime must cover at least one period")
        if self.start_s < 0:
            raise ValueError("session start must be >= 0")

    @property
    def session_key(self) -> "tuple[int, int]":
        """The ``(user_id, query_id)`` pair all protocol state is keyed by."""
        return (self.user_id, self.query_id)

    @property
    def end_s(self) -> float:
        """Absolute end of the session (``start_s + lifetime_s``)."""
        return self.start_s + self.lifetime_s

    def area_at(self, center: Vec2) -> Circle:
        """The query area centred on ``center``: the disk of radius ``Rq``."""
        return Circle(center, self.radius_m)

    @property
    def num_periods(self) -> int:
        """Number of results the user expects (``floor(Td / Tperiod)``)."""
        return int(self.lifetime_s / self.period_s + 1e-9)

    def deadline(self, k: int) -> float:
        """Delivery deadline of the k-th result (k starts at 1)."""
        if k < 1:
            raise ValueError(f"period index must be >= 1, got {k}")
        return self.start_s + k * self.period_s

    def period_index(self, t: float) -> int:
        """The period containing absolute time ``t`` (0 before deadline 1).

        ``period_index(deadline(k)) == k``: a deadline instant belongs to
        the period it closes, matching the gateway's watchdog arithmetic.
        The epsilon guards non-representable period lengths (0.7, 0.3, ...)
        the same way :attr:`num_periods` does.
        """
        return int((t - self.start_s) / self.period_s + 1e-9)


@dataclass
class AggregateState:
    """Mergeable partial aggregate (sufficient statistics + contributors)."""

    count: int = 0
    total: float = 0.0
    minimum: Optional[float] = None
    maximum: Optional[float] = None
    contributors: Set[int] = field(default_factory=set)

    @staticmethod
    def from_reading(node_id: int, value: float) -> "AggregateState":
        """A singleton aggregate for one node's reading."""
        return AggregateState(
            count=1,
            total=value,
            minimum=value,
            maximum=value,
            contributors={node_id},
        )

    def merge(self, other: "AggregateState") -> None:
        """Fold ``other`` into this partial (idempotent per contributor).

        Duplicate contributors (a node heard through two paths) are counted
        once: the contributor set is authoritative and the statistics skip
        already-merged singletons when detectable.  In the tree protocol a
        node reports to exactly one parent, so duplicates only arise from
        MAC-level retransmission races, which the contributor check absorbs.
        """
        if other.count == 1:
            (only,) = other.contributors
            if only in self.contributors:
                return
        self.count += other.count
        self.total += other.total
        if other.minimum is not None:
            self.minimum = (
                other.minimum
                if self.minimum is None
                else min(self.minimum, other.minimum)
            )
        if other.maximum is not None:
            self.maximum = (
                other.maximum
                if self.maximum is None
                else max(self.maximum, other.maximum)
            )
        self.contributors |= other.contributors

    def copy(self) -> "AggregateState":
        """An independent copy (what a report message should carry)."""
        return AggregateState(
            count=self.count,
            total=self.total,
            minimum=self.minimum,
            maximum=self.maximum,
            contributors=set(self.contributors),
        )

    def value(self, aggregation: Aggregation) -> Optional[float]:
        """Finalize the aggregate; None when no readings contributed."""
        if self.count == 0:
            return None
        if aggregation is Aggregation.COUNT:
            return float(self.count)
        if aggregation is Aggregation.SUM:
            return self.total
        if aggregation is Aggregation.AVG:
            return self.total / self.count
        if aggregation is Aggregation.MIN:
            return self.minimum
        return self.maximum
