"""Discrete-event simulation kernel.

This is the substrate everything else runs on — the role ns-2's scheduler
played for the paper.  The kernel is a plain binary-heap event loop with:

* ``schedule(delay, fn, *args)`` / ``schedule_at(time, fn, *args)`` returning
  cancellable handles,
* deterministic FIFO ordering for simultaneous events (tie-broken by a
  monotonically increasing sequence number, so two events scheduled for the
  same instant fire in scheduling order),
* ``run(until=...)`` which executes events with ``time <= until`` and leaves
  the clock at ``until``.

Hot-path layout: the heap stores ``(time, seq, handle)`` tuples so ordering
is resolved by C-level tuple comparison instead of a Python ``__lt__`` call
per heap swap (the single largest per-event cost in profiles).  ``seq`` is
unique, so the handle itself is never compared.  Cancelled events stay in
the heap until they surface and are popped there.
"""

from __future__ import annotations

import gc
from heapq import heappop, heappush
from typing import Any, Callable, List, Optional, Tuple


class SimulationError(RuntimeError):
    """Raised for kernel misuse (scheduling in the past, re-running, ...)."""


class EventHandle:
    """A scheduled callback.  ``cancel()`` prevents it from firing."""

    __slots__ = ("time", "seq", "fn", "args", "cancelled")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any], args: tuple):
        self.time = time
        self.seq = seq
        self.fn: Optional[Callable[..., Any]] = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Cancel the event.  Cancelling twice or after firing is a no-op."""
        self.cancelled = True
        self.fn = None
        self.args = ()

    @property
    def pending(self) -> bool:
        """Whether the event is still waiting to fire."""
        return not self.cancelled and self.fn is not None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "cancelled" if self.cancelled else "pending"
        return f"<EventHandle t={self.time:.6f} seq={self.seq} {state}>"


#: heap entry: ``(time, seq, handle)`` for cancellable events or
#: ``(time, seq, None, fn, args)`` for fire-and-forget ones — compared as a
#: tuple; ``seq`` is unique so the third element never takes part.
_Entry = Tuple[Any, ...]


class Simulator:
    """The event loop.

    A single ``Simulator`` instance owns simulated time for one experiment
    run.  All model components keep a reference to it and schedule their
    callbacks through it.
    """

    def __init__(self) -> None:
        #: current simulated time in seconds, from 0.  A plain attribute —
        #: reading the clock is ubiquitous on hot paths and a property
        #: costs a Python call per read.  Owned by the kernel; never assign
        #: to it.
        self.now = 0.0
        self._queue: List[_Entry] = []
        self._seq = 0
        self._running = False
        self.events_executed = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now.

        Raises:
            SimulationError: if ``delay`` is negative.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay:.6f}s in the past")
        return self.schedule_at(self.now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute time ``time``.

        Raises:
            SimulationError: if ``time`` precedes the current clock.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time:.6f} before now={self.now:.6f}"
            )
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(time, seq, fn, args)
        heappush(self._queue, (time, seq, handle))
        return handle

    def schedule_fast(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget ``schedule``: no :class:`EventHandle` is created.

        For hot internal timers that are never cancelled (MAC attempts, PSM
        boundaries, transmission completions).  Ordering semantics are
        identical to ``schedule``; the only difference is that the event
        cannot be cancelled because nothing refers to it.

        Raises:
            SimulationError: if ``delay`` is negative.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay:.6f}s in the past")
        seq = self._seq
        self._seq = seq + 1
        heappush(self._queue, (self.now + delay, seq, None, fn, args))

    def schedule_at_fast(self, time: float, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget ``schedule_at`` (see :meth:`schedule_fast`).

        Raises:
            SimulationError: if ``time`` precedes the current clock.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time:.6f} before now={self.now:.6f}"
            )
        seq = self._seq
        self._seq = seq + 1
        heappush(self._queue, (time, seq, None, fn, args))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        """Run events until the queue drains or the clock passes ``until``.

        After the call the clock equals ``until`` when one was given (even if
        the queue drained earlier), so follow-up scheduling is relative to
        the requested horizon.

        Args:
            until: absolute stop time; events at exactly ``until`` run.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        if until is not None and until < self.now:
            raise SimulationError(
                f"run(until={until:.6f}) is before now={self.now:.6f}"
            )
        self._running = True
        # Event execution allocates heavily (frames, receptions, Vec2s) but
        # the model creates no reference cycles; pausing the cyclic GC for
        # the run avoids full-heap scans mid-simulation.  Restored below.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        # The queue list is only ever mutated in place (heappush/heappop),
        # so holding one reference stays valid.
        queue = self._queue
        try:
            # One loop iteration per event (a cancelled head is popped on
            # the way) with no method dispatch on the hot path.
            while queue:
                entry = queue[0]
                handle = entry[2]
                if handle is not None and handle.cancelled:
                    heappop(queue)
                    continue
                time = entry[0]
                if until is not None and time > until:
                    break
                heappop(queue)
                self.now = time
                self.events_executed += 1
                if handle is None:
                    entry[3](*entry[4])
                else:
                    fn, args = handle.fn, handle.args
                    handle.fn, handle.args = None, ()
                    fn(*args)
        finally:
            self._running = False
            if gc_was_enabled:
                gc.enable()
        if until is not None and self.now < until:
            self.now = until

    @property
    def pending_count(self) -> int:
        """Number of live (non-cancelled) events in the queue.

        Counted when read: only the leak census, the soak and tests ask.
        """
        return sum(
            1 for entry in self._queue if entry[2] is None or not entry[2].cancelled
        )
