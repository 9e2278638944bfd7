"""Time-parameterized piecewise-linear paths.

Both the user's true trajectory and the predicted trajectories inside motion
profiles are piecewise-linear functions of time.  A path is a sorted list of
``(time, position)`` waypoints; position between waypoints is linear
interpolation, and the path is clamped (the user stands still) outside its
time span.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..geometry.vec import Vec2

#: One flat linear piece of a motion, ``(t_lo, t_hi, t_ref, span, x0, dx, y0,
#: dy)``: at every ``t`` in ``[t_lo, t_hi)`` the mover is at ``(x0 + dx * f,
#: y0 + dy * f)`` with ``f = (t - t_ref) / span``.  See
#: :meth:`PiecewisePath.segment_at`.
MotionPiece = Tuple[float, float, float, float, float, float, float, float]


@dataclass(frozen=True, slots=True)
class Waypoint:
    """A position pinned to a time."""

    time: float
    position: Vec2


class PiecewisePath:
    """Piecewise-linear trajectory through a sequence of waypoints."""

    def __init__(self, waypoints: Sequence[Waypoint]) -> None:
        if not waypoints:
            raise ValueError("a path needs at least one waypoint")
        times = [w.time for w in waypoints]
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ValueError("waypoint times must be strictly increasing")
        self.waypoints: List[Waypoint] = list(waypoints)
        self._times = times
        # Memo of the segment the last query fell in: queries arrive in
        # near-monotonic simulated-time order, so the same segment answers
        # long runs of calls without a bisect.  The (time, position) memo
        # answers repeated queries at one instant (carrier sense followed by
        # a transmission in the same event) with no arithmetic at all.
        self._last_idx = 0
        self._memo_t = float("nan")
        self._memo_pos = self.waypoints[0].position
        self._max_speed: float | None = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def stationary(position: Vec2) -> "PiecewisePath":
        """A degenerate path: standing still at ``position`` from t = 0."""
        return PiecewisePath([Waypoint(0.0, position)])

    @staticmethod
    def from_velocity(
        start: Vec2, velocity: Vec2, start_time: float, duration: float
    ) -> "PiecewisePath":
        """Straight-line motion at constant ``velocity`` for ``duration``.

        This is the shape every history-based motion profile has (paper
        Section 4.1.1: assume the user keeps moving at the estimated v).
        """
        if duration <= 0:
            raise ValueError(f"duration must be > 0, got {duration}")
        return PiecewisePath(
            [
                Waypoint(start_time, start),
                Waypoint(start_time + duration, start + velocity * duration),
            ]
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def start_time(self) -> float:
        return self.waypoints[0].time

    @property
    def end_time(self) -> float:
        return self.waypoints[-1].time

    def position_at(self, t: float) -> Vec2:
        """Position at time ``t``; clamped before the start / after the end."""
        if t == self._memo_t:
            return self._memo_pos
        wps = self.waypoints
        if t <= wps[0].time:
            return wps[0].position
        if t >= wps[-1].time:
            return wps[-1].position
        times = self._times
        idx = self._last_idx
        if not times[idx] <= t < times[idx + 1]:
            idx = bisect.bisect_right(times, t) - 1
            self._last_idx = idx
        a, b = wps[idx], wps[idx + 1]
        frac = (t - a.time) / (b.time - a.time)
        pa = a.position
        pb = b.position
        pax = pa.x
        pay = pa.y
        pos = Vec2(pax + (pb.x - pax) * frac, pay + (pb.y - pay) * frac)
        self._memo_t = t
        self._memo_pos = pos
        return pos

    def segment_at(self, t: float) -> MotionPiece:
        """The flat linear piece the path is on at ``t``, as plain floats.

        For every ``u`` in the piece's ``[t_lo, t_hi)``, evaluating the
        :data:`MotionPiece` formula reproduces ``position_at(u)`` **bit for
        bit** — ``span`` and ``dx`` / ``dy`` are the very sub-expressions
        ``position_at`` computes (never ``1 / span`` or ``dx / span``, which
        round differently) — so a caller that evaluates many instants, like
        the channel's range test, can hold the piece and skip the call and
        the ``Vec2`` until ``u`` leaves it.

        The clamped ends are zero-velocity pieces reaching ``-inf`` / ``inf``
        whose infinite ``span`` makes ``f`` exactly ``+0.0``; their ``dx`` /
        ``dy`` are ``-0.0``, the additive identity that also leaves a
        ``-0.0`` coordinate alone.  The leading one includes the first
        waypoint's own instant (as ``position_at`` clamps with ``<=``) and
        is anchored on its ``t_hi`` so that ``f`` stays ``+0.0`` there.
        """
        times = self._times
        if t <= times[0]:
            p = self.waypoints[0].position
            t_hi = math.nextafter(times[0], math.inf)
            return (-math.inf, t_hi, t_hi, -math.inf, p.x, -0.0, p.y, -0.0)
        if t >= times[-1]:
            p = self.waypoints[-1].position
            return (times[-1], math.inf, times[-1], math.inf, p.x, -0.0, p.y, -0.0)
        idx = bisect.bisect_right(times, t) - 1
        a, b = self.waypoints[idx], self.waypoints[idx + 1]
        pa, pb = a.position, b.position
        return (a.time, b.time, a.time, b.time - a.time,
                pa.x, pb.x - pa.x, pa.y, pb.y - pa.y)

    def restricted(self, t0: float, t1: float) -> "PiecewisePath":
        """The sub-path covering ``[t0, t1]`` (endpoints interpolated).

        Used by the motion planner to hand MobiQuery exactly the validity
        window of a profile.
        """
        if t1 <= t0:
            raise ValueError(f"empty restriction [{t0}, {t1}]")
        points = [Waypoint(t0, self.position_at(t0))]
        for waypoint in self.waypoints:
            if t0 < waypoint.time < t1:
                points.append(waypoint)
        points.append(Waypoint(t1, self.position_at(t1)))
        return PiecewisePath(points)

    def change_times(self) -> List[float]:
        """Times at which the velocity changes (interior waypoints)."""
        return [w.time for w in self.waypoints[1:-1]]

    def max_speed(self) -> float:
        """The fastest segment speed — a global Lipschitz bound on motion.

        ``|position_at(t2) - position_at(t1)| <= max_speed() * (t2 - t1)``
        for all t1 <= t2 (the path is clamped outside its span, where the
        speed is zero).  This is the precondition the channel's mobile cell
        index puts on ``MobileEndpoint.max_speed_mps``: a proxy indexed at
        ``t1`` is looked for only within that distance until ``t2``.
        """
        if self._max_speed is None:
            best = 0.0
            for a, b in zip(self.waypoints, self.waypoints[1:]):
                speed = a.position.distance_to(b.position) / (b.time - a.time)
                if speed > best:
                    best = speed
            self._max_speed = best
        return self._max_speed

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<PiecewisePath {len(self.waypoints)} wps "
            f"[{self.start_time:.1f}, {self.end_time:.1f}]s>"
        )
