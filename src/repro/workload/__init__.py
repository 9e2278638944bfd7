"""What a multi-user run is made of besides the service itself.

The paper evaluates MobiQuery one mobile user at a time; the concurrency
axis is opened by :class:`~repro.api.service.MobiQueryService`, which
admits, starts and tears down every session.  This package keeps the
parts others read: the arrival processes that spread session starts
(:mod:`repro.workload.arrivals`), the per-user proxy endpoint
(:func:`build_proxy`, :func:`proxy_id_for`), and the scored outcome
(:class:`SessionResult`, :class:`WorkloadResult`).
"""

from .arrivals import (
    ARRIVAL_POISSON,
    ARRIVAL_PROCESSES,
    ARRIVAL_SIMULTANEOUS,
    ARRIVAL_STAGGERED,
    ARRIVAL_UNIFORM,
    arrival_times,
)
from .engine import WorkloadResult
from .session import (
    PROXY_ID_BASE,
    SessionResult,
    build_proxy,
    proxy_id_for,
)

__all__ = [
    "ARRIVAL_SIMULTANEOUS",
    "ARRIVAL_STAGGERED",
    "ARRIVAL_UNIFORM",
    "ARRIVAL_POISSON",
    "ARRIVAL_PROCESSES",
    "arrival_times",
    "WorkloadResult",
    "SessionResult",
    "PROXY_ID_BASE",
    "proxy_id_for",
    "build_proxy",
]
