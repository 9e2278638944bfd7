"""Structured event tracing.

Experiments need post-hoc visibility into protocol behaviour (when was each
tree set up? how many setup floods overlapped? which packets collided?)
without sprinkling metric-specific bookkeeping through the protocol code.
Components emit trace records; metric collectors subscribe to the kinds they
care about.  Recording is cheap when nobody subscribed.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional


@dataclass(frozen=True)
class TraceRecord:
    """One traced occurrence: a kind, a timestamp, and free-form fields."""

    kind: str
    time: float
    fields: Dict[str, Any] = field(default_factory=dict)

    def __getitem__(self, key: str) -> Any:
        return self.fields[key]

    def get(self, key: str, default: Any = None) -> Any:
        return self.fields.get(key, default)


class Tracer:
    """Pub/sub sink for :class:`TraceRecord` instances.

    ``keep`` controls retention: kinds listed there are stored for later
    querying (experiments enable only what they analyse); every emitted kind
    is always counted.
    """

    def __init__(self, keep: Optional[List[str]] = None) -> None:
        self._keep = set(keep or [])
        self._records: List[TraceRecord] = []
        self.counts: Counter = Counter()
        self._subscribers: Dict[str, List[Callable[[TraceRecord], None]]] = defaultdict(list)
        #: kinds somebody retains or subscribes to (``wants``'s fast set);
        #: kept in sync by ``keep_kind``/``subscribe``.
        self._active_kinds = set(self._keep)

    def keep_kind(self, kind: str) -> None:
        """Start retaining records of ``kind``."""
        self._keep.add(kind)
        self._active_kinds.add(kind)

    def subscribe(self, kind: str, callback: Callable[[TraceRecord], None]) -> None:
        """Invoke ``callback(record)`` for every emitted record of ``kind``."""
        self._subscribers[kind].append(callback)
        self._active_kinds.add(kind)

    def wants(self, kind: str) -> bool:
        """Whether emitting ``kind`` does more than bump its counter.

        Hot emitters (the channel's per-frame ``tx``/``rx``/``collision``)
        check this before building the record's field set; when it is False
        they call :meth:`tick` instead, which is observably identical to
        ``emit`` for an unwatched kind.
        """
        return kind in self._active_kinds

    def tick(self, kind: str) -> None:
        """Count an occurrence of ``kind`` without building a record."""
        self.counts[kind] += 1

    def tick_many(self, kind: str, n: int) -> None:
        """Count ``n`` occurrences of ``kind`` at once (batch ``tick``).

        Batch emitters (the channel resolves a whole frame's receiver
        cohort in one event) tally their unwatched outcomes locally and
        bump the counter once per batch; observably identical to ``n``
        ``tick`` calls.
        """
        self.counts[kind] += n

    def emit(self, kind: str, time: float, **fields: Any) -> None:
        """Emit a record.  Cheap when the kind is neither kept nor subscribed."""
        self.counts[kind] += 1
        subscribers = self._subscribers.get(kind)
        retain = kind in self._keep
        if not subscribers and not retain:
            return
        record = TraceRecord(kind, time, fields)
        if retain:
            self._records.append(record)
        if subscribers:
            for callback in subscribers:
                callback(record)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def records(self, kind: Optional[str] = None) -> List[TraceRecord]:
        """Retained records, optionally filtered by ``kind``."""
        if kind is None:
            return list(self._records)
        return [r for r in self._records if r.kind == kind]

    def count(self, kind: str) -> int:
        """How many records of ``kind`` were emitted (kept or not)."""
        return self.counts[kind]

    def clear(self) -> None:
        """Drop retained records and counters."""
        self._records.clear()
        self.counts.clear()
