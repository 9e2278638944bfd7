"""Service-facing query requests and per-period outcomes.

A :class:`QueryRequest` is what one mobile user asks of the service: the
paper's query six-tuple, a session start time, and (optionally) the
user's motion.  Each request stands alone, so a single service instance
can serve heterogeneous workloads: mixed periods, radii, aggregations,
freshness bounds, walks and profile pipelines side by side.

Validation lives here so that an invalid combination fails at the API
boundary with one clear sentence instead of a traceback deep inside the
protocol engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.query import Aggregation
from ..geometry.vec import Vec2
from ..mobility.models import RandomDirectionConfig
from ..mobility.path import PiecewisePath

#: per-request motion-profile delivery modes (None = service default)
PROFILE_MODES = ("full", "planner", "predictor")

#: answer-accuracy classes, exactest first.  ``exact`` runs the full
#: collection protocol (bit-identical to the pre-accuracy service);
#: ``medium``/``coarse`` answer periods from the in-network summary plane
#: (:mod:`repro.approx`) at a bounded error, trading fidelity for frames.
ACCURACY_LEVELS = ("exact", "medium", "coarse")


def validate_query_params(
    radius_m: float, period_s: float, freshness_s: float
) -> None:
    """Reject impossible query-parameter combinations with one-line errors.

    Shared by :class:`QueryRequest` and the CLI so every entry point fails
    the same way.
    """
    if radius_m <= 0:
        raise ValueError(f"query radius must be > 0 m, got {radius_m:g}")
    if period_s <= 0:
        raise ValueError(f"query period must be > 0 s, got {period_s:g}")
    if freshness_s <= 0:
        raise ValueError(f"freshness bound must be > 0 s, got {freshness_s:g}")
    if freshness_s > period_s:
        raise ValueError(
            f"freshness bound ({freshness_s:g} s) must not exceed the query "
            f"period ({period_s:g} s): a result cannot require readings "
            f"fresher than the interval it covers"
        )


@dataclass(frozen=True)
class QueryRequest:
    """One user's spatiotemporal query, as submitted to the service.

    Attributes:
        attribute: sensor attribute ``α`` to aggregate.
        aggregation: aggregation function ``F``.
        radius_m: query-area radius ``Rq`` around the user.
        period_s: ``Tperiod`` — one result due every period.
        freshness_s: ``Tfresh`` — max reading age at delivery
            (must not exceed ``period_s``).
        start_s: requested session start (admission may offset it).
        lifetime_s: ``Td``; None = run until the service horizon.
        user_id: stable user identity; None = assigned by the service.
        path: the user's true motion.  None = the service synthesises a
            random-direction walk for this user from its own mobility
            stream.
        walk: the random-direction model of that synthesised walk (speed
            range, leg length); None = the paper's 3-5 m/s, 50 s legs.
            Ignored when ``path`` is given.
        profile_mode: "full" | "planner" | "predictor" | None (service
            default).
        advance_time_s / gps_error_m / sampling_period_s: provider knobs;
            None = service defaults.
        accuracy: "exact" (default; full collection protocol) or
            "medium"/"coarse" — answer each period from cached
            multiresolution summaries with a declared ``error_bound``.
    """

    attribute: str = "temperature"
    aggregation: Aggregation = Aggregation.AVG
    radius_m: float = 150.0
    period_s: float = 2.0
    freshness_s: float = 1.0
    start_s: float = 0.0
    lifetime_s: Optional[float] = None
    user_id: Optional[int] = None
    path: Optional[PiecewisePath] = None
    walk: Optional[RandomDirectionConfig] = None
    profile_mode: Optional[str] = None
    advance_time_s: Optional[float] = None
    gps_error_m: Optional[float] = None
    sampling_period_s: Optional[float] = None
    accuracy: str = "exact"

    def __post_init__(self) -> None:
        validate_query_params(self.radius_m, self.period_s, self.freshness_s)
        if self.start_s < 0:
            raise ValueError(f"session start must be >= 0 s, got {self.start_s:g}")
        if self.lifetime_s is not None and self.lifetime_s < self.period_s:
            raise ValueError(
                f"lifetime ({self.lifetime_s:g} s) must cover at least one "
                f"period ({self.period_s:g} s)"
            )
        if self.user_id is not None and self.user_id < 0:
            raise ValueError(f"user_id must be >= 0, got {self.user_id}")
        if self.profile_mode is not None and self.profile_mode not in PROFILE_MODES:
            raise ValueError(
                f"unknown profile mode {self.profile_mode!r}; "
                f"expected one of {PROFILE_MODES}"
            )
        if self.accuracy not in ACCURACY_LEVELS:
            raise ValueError(
                f"unknown accuracy {self.accuracy!r}; "
                f"expected one of {ACCURACY_LEVELS}"
            )


@dataclass(frozen=True)
class PeriodOutcome:
    """One streamed per-period result, as observed at its deadline.

    Yielded by :meth:`SessionHandle.results`; classification is made at
    the deadline instant — a result that straggles in later never flips
    ``delivered`` for an already-streamed period.
    """

    k: int
    deadline: float
    delivered: bool
    on_time: bool
    value: Optional[float]
    contributors: int
    delivered_at: Optional[float]
    #: centre of the area the service actually queried, when reported
    area_center: Optional[Vec2] = None
    #: declared worst-case |answer - exact| for approximate sessions;
    #: None on the exact path (the answer *is* the protocol's answer)
    error_bound: Optional[float] = None

    @property
    def missed(self) -> bool:
        """True when no on-time result reached the user."""
        return not self.on_time
