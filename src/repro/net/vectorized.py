"""Batched mobile-position evaluation and the ``REPRO_VECTORIZE`` switch.

The channel's one numpy accelerator and the switch that turns it off
(reception itself is plain loops over plain radios — see
:mod:`repro.net.channel`).

* :class:`MobileSweep` positions the whole proxy fleet with one
  elementwise segment evaluation per timestamp.  The channel uses it from
  ``MOBILE_SWEEP_THRESHOLD`` proxies up and the direct per-proxy
  ``position_at`` loop below — the only threshold in ``repro.net``.
* ``REPRO_VECTORIZE`` (``0`` / ``off`` / ``false`` / ``reference`` /
  ``no``) turns the sweep off, and nothing else: every fleet size then
  takes the direct loop.  It exists as the sweep's test oracle — the
  golden pins run on both legs — and is read per
  :class:`~repro.net.channel.Channel` at construction.  The module also
  imports without numpy (the sweep is then simply absent), which the
  ``sys.modules`` shim in ``tests/test_net_vectorized.py`` exercises.

**Bit-identity.**  The sweep is an elementwise float64 evaluation of the
exact expression :meth:`~repro.mobility.path.PiecewisePath.position_at`
computes per call — no reductions, no reassociation — so positions, and
with them every frame counter and success ratio, are bit-identical on
both legs.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

try:  # the sweep is an optional accelerator (numpy is a hard dep elsewhere)
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via the sys.modules shim
    _np = None

#: Mobile-fleet size at which the channel batches the whole fleet's
#: ``position_at`` through :class:`MobileSweep` instead of the direct
#: per-proxy loop.  One batched segment evaluation costs the same for 1
#: proxy as for 64, so it only pays once the fleet is wide: measured on
#: the pinned scenarios, the sweep loses ~14% of whole-run wall at 8
#: proxies, is a wash at 16, and wins ~19% at 64; on the ledger's 48-user
#: ``dense48`` it is worth +22-31% of ``sim_s_per_busy_s`` over the direct
#: loop (53.9 / 59.6 / 54.6 / 53.4 against 43.7 / 45.6 / 44.1 / 43.8
#: under the kill-switch, seeds 2-5).
MOBILE_SWEEP_THRESHOLD = 17

#: Environment kill-switch values that turn the sweep off.
_OFF_VALUES = ("0", "off", "false", "reference", "no")


def numpy_or_none():
    """The numpy module when the sweep is available and enabled.

    Consulted at :class:`~repro.net.channel.Channel` construction (not
    import time), so tests can flip ``REPRO_VECTORIZE`` per channel.
    """
    env = os.environ.get("REPRO_VECTORIZE", "").strip().lower()
    if env in _OFF_VALUES:
        return None
    return _np


def accelerator_name() -> str:
    """Which mobile-lookup leg a fresh channel would run (for perf reports)."""
    np_mod = numpy_or_none()
    if np_mod is None:
        return "reference"
    return f"numpy-{np_mod.__version__}"


class MobileSweep:
    """Batched ``position_at`` over the whole mobile fleet per timestamp.

    Each proxy's current path segment is held as ``(t0, dt, ax, ay, dx,
    dy)`` so one elementwise evaluation ``a + d * ((now - t0) / dt)``
    yields every proxy's position — the exact float expression
    :meth:`~repro.mobility.path.PiecewisePath.position_at` computes per
    call, so the values are bit-identical.  Segments advance monotonically
    (channel queries never go back in time); clamped stretches (before the
    first waypoint, after the last) use ``d = 0`` so the evaluation
    reproduces the clamp exactly.  Proxies whose ``position_at`` is not a
    plain :class:`~repro.mobility.path.PiecewisePath` method are evaluated
    per call into the same arrays (opaque fallback).
    """

    def __init__(self, np_mod) -> None:
        self.np = np_mod
        self.dirty = True
        self._last_t: Optional[float] = None
        self.endpoints: List = []
        self.slot_of: Dict[int, int] = {}
        self.xs = np_mod.empty(0, dtype=float)
        self.ys = np_mod.empty(0, dtype=float)

    def rebuild(self, mobiles: Dict[int, object]) -> None:
        """Rebuild the segment arrays from the registered fleet."""
        from ..mobility.path import PiecewisePath  # no import cycle: lazy

        np_mod = self.np
        eps = list(mobiles.values())
        n = len(eps)
        self.endpoints = eps
        self.slot_of = {ep.node_id: k for k, ep in enumerate(eps)}
        self.t0 = np_mod.zeros(n, dtype=float)
        self.dt = np_mod.ones(n, dtype=float)
        self.ax = np_mod.zeros(n, dtype=float)
        self.ay = np_mod.zeros(n, dtype=float)
        self.dx = np_mod.zeros(n, dtype=float)
        self.dy = np_mod.zeros(n, dtype=float)
        self.seg_end = np_mod.full(n, np_mod.inf)
        # Per-slot remaining segments, consumed front-to-back as time
        # advances: [(end, t0, dt, ax, ay, dx, dy), ...].
        self._pending: List[Optional[List[tuple]]] = [None] * n
        self._opaque: List[int] = []
        for k, ep in enumerate(eps):
            fn = ep.position_at
            path = getattr(fn, "__self__", None)
            if (
                isinstance(path, PiecewisePath)
                and getattr(fn, "__func__", None) is PiecewisePath.position_at
            ):
                self._pending[k] = self._segments(path)
                self._advance(k, self._last_t if self._last_t is not None else 0.0)
            else:
                self._opaque.append(k)
        self.dirty = False
        self._last_t = None  # force a fresh evaluation

    @staticmethod
    def _segments(path) -> List[tuple]:
        """``(end, t0, dt, ax, ay, dx, dy)`` per stretch, time-ordered."""
        wps = path.waypoints
        first = wps[0]
        segs = [
            # Clamped before the start: d = 0 reproduces the clamp exactly.
            (first.time, 0.0, 1.0, first.position.x, first.position.y, 0.0, 0.0)
        ]
        for a, b in zip(wps, wps[1:]):
            pa, pb = a.position, b.position
            segs.append(
                (
                    b.time,
                    a.time,
                    b.time - a.time,
                    pa.x,
                    pa.y,
                    pb.x - pa.x,
                    pb.y - pa.y,
                )
            )
        last = wps[-1]
        segs.append(
            (float("inf"), last.time, 1.0, last.position.x, last.position.y, 0.0, 0.0)
        )
        return segs

    def _advance(self, k: int, now: float) -> None:
        segs = self._pending[k]
        while len(segs) > 1 and now >= segs[0][0]:
            segs.pop(0)
        end, t0, dt, ax, ay, dx, dy = segs[0]
        self.seg_end[k] = end
        self.t0[k] = t0
        self.dt[k] = dt
        self.ax[k] = ax
        self.ay[k] = ay
        self.dx[k] = dx
        self.dy[k] = dy

    def positions_at(self, now: float):
        """``(xs, ys)`` for every slot at ``now`` (cached per timestamp)."""
        if now == self._last_t:
            return self.xs, self.ys
        np_mod = self.np
        stale = np_mod.nonzero(self.seg_end <= now)[0]
        for k in stale.tolist():
            self._advance(k, now)
        frac = (now - self.t0) / self.dt
        xs = self.ax + self.dx * frac
        ys = self.ay + self.dy * frac
        for k in self._opaque:
            pos = self.endpoints[k].position_at(now)
            xs[k] = pos.x
            ys[k] = pos.y
        self.xs = xs
        self.ys = ys
        self._last_t = now
        return xs, ys
