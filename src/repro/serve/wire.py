"""Wire codec: JSON payloads <-> domain objects, plus stat summaries.

The daemon speaks exactly the request-payload dialect scenarios already
serialize (:func:`repro.api.scenarios.request_from_payload`), with a
tenancy restriction on top: identity fields (``user_id``) and template
clone keys may not cross the wire — the cluster assigns ids, and a wire
body is one request.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

from ..api.requests import PeriodOutcome, QueryRequest
from .errors import WireError

#: template keys a wire submission may not carry
_FORBIDDEN_WIRE_KEYS = ("user_id", "count", "spacing_s", "arrival")


def request_from_wire(payload: object) -> QueryRequest:
    """Decode one POST /sessions body into a :class:`QueryRequest`.

    Raises :class:`WireError` (``invalid-request``) on anything the
    in-process expansion would reject, plus the wire-only restrictions.
    """
    if not isinstance(payload, dict):
        raise WireError(
            "invalid-request",
            f"request body must be a JSON object, got {type(payload).__name__}",
        )
    for key in _FORBIDDEN_WIRE_KEYS:
        if key in payload:
            raise WireError(
                "invalid-request",
                f"field {key!r} may not be set over the wire",
            )
    from ..api.scenarios import request_from_payload

    try:
        return request_from_payload(payload)
    except (ValueError, TypeError) as exc:
        raise WireError("invalid-request", str(exc)) from exc


def outcome_to_wire(outcome: PeriodOutcome) -> Dict:
    """One per-period outcome as a JSON-ready dict (the stream item)."""
    center = outcome.area_center
    return {
        "k": outcome.k,
        "deadline": outcome.deadline,
        "delivered": outcome.delivered,
        "on_time": outcome.on_time,
        "value": outcome.value,
        "contributors": outcome.contributors,
        "delivered_at": outcome.delivered_at,
        "area_center": [center.x, center.y] if center is not None else None,
        "error_bound": outcome.error_bound,
    }


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted non-empty sequence."""
    if not sorted_values:
        raise ValueError("percentile of an empty sequence")
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def summarize(values: Sequence[float]) -> Optional[Dict]:
    """count/mean/p50/p90/p99/max of a sample; None when it is empty."""
    if not values:
        return None
    ordered: List[float] = sorted(values)
    return {
        "count": len(ordered),
        "mean": sum(ordered) / len(ordered),
        "p50": percentile(ordered, 50),
        "p90": percentile(ordered, 90),
        "p99": percentile(ordered, 99),
        "max": ordered[-1],
    }


__all__ = [
    "outcome_to_wire",
    "percentile",
    "request_from_wire",
    "summarize",
]
