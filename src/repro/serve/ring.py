"""A bounded per-session result ring with long-poll readers.

Each admitted session gets one :class:`ResultRing`: the daemon's pump
thread appends per-period outcomes as their deadlines pass, and any
number of HTTP readers long-poll :meth:`read` for items newer than the
last period they saw.  The ring is bounded — a slow (or absent) reader
costs at most ``capacity`` buffered outcomes, never unbounded memory —
and honest about it: a reader that fell behind is told how many periods
it missed rather than being silently resynced.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Dict, List, Tuple


class ResultRing:
    """Bounded buffer of per-period outcome dicts, keyed by period ``k``.

    Thread-safe; writers :meth:`append` and :meth:`close`, readers
    :meth:`read`.  Items must arrive in strictly increasing ``k`` order
    (the pump harvests periods in deadline order, so this holds by
    construction).
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError(f"ring capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._items: deque = deque(maxlen=capacity)
        self._dropped = 0
        self._closed = False
        self._cond = threading.Condition()

    def append(self, item: Dict) -> None:
        """Buffer one outcome (evicting the oldest when full) and wake readers."""
        with self._cond:
            if self._closed:
                raise RuntimeError("append() on a closed ring")
            if len(self._items) == self.capacity:
                self._dropped += 1
            self._items.append(item)
            self._cond.notify_all()

    def close(self) -> None:
        """No more items will arrive (session done/cancelled); wake readers."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` was called: no more items will arrive."""
        with self._cond:
            return self._closed

    @property
    def dropped(self) -> int:
        """Outcomes evicted before any reader could have seen them."""
        with self._cond:
            return self._dropped

    def read(
        self, after_k: int = 0, wait_s: float = 0.0
    ) -> Tuple[List[Dict], int, bool]:
        """Everything buffered after period ``after_k``.

        Blocks up to ``wait_s`` for news when nothing is available yet
        (the long-poll).  Returns ``(items, missed, done)``: ``missed``
        counts periods that were evicted before this reader got to them
        (0 when it kept up), and ``done`` is True once the ring is closed
        — because a read always extends to the newest buffered item,
        ``done`` means the reader has seen everything it ever will.
        """
        deadline = None
        with self._cond:
            while True:
                items = [i for i in self._items if i["k"] > after_k]
                if items or self._closed or wait_s <= 0.0:
                    break
                if deadline is None:
                    import time

                    deadline = time.monotonic() + wait_s
                    remaining = wait_s
                else:
                    import time

                    remaining = deadline - time.monotonic()
                if remaining <= 0.0:
                    break
                self._cond.wait(remaining)
            missed = 0
            if items:
                oldest = items[0]["k"]
                if oldest > after_k + 1:
                    missed = oldest - after_k - 1
            return items, missed, self._closed


__all__ = ["ResultRing"]
