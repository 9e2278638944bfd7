"""Geometric primitives used throughout the simulator.

Circles model query areas (radius ``Rq`` around the user), radio ranges
(``Rc``) and sensing ranges (``Rs``).  The circle-intersection machinery is
what CCP's sleeping-eligibility rule is built on: a node may sleep when every
intersection point of its neighbours' sensing circles that falls inside its
own sensing disk is covered by an active neighbour (Wang et al., SenSys'03).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

from .vec import Vec2


#: slack, in metres, of :meth:`Circle.contains` at the boundary
CIRCLE_TOL_M = 1e-9


@dataclass(frozen=True)
class Circle:
    """A disk with ``center`` and ``radius`` (the boundary is included)."""

    center: Vec2
    radius: float

    def __post_init__(self) -> None:
        if self.radius < 0:
            raise ValueError(f"circle radius must be >= 0, got {self.radius}")

    def contains(self, point: Vec2) -> bool:
        """Whether ``point`` lies inside or on the circle."""
        return self.center.distance_sq_to(point) <= (self.radius + CIRCLE_TOL_M) ** 2

    def area(self) -> float:
        """Disk area."""
        return math.pi * self.radius * self.radius

    def intersection_points(self, other: "Circle") -> List[Vec2]:
        """The 0, 1 or 2 intersection points of the two circle *boundaries*.

        Coincident circles intersect everywhere; for that degenerate case we
        return an empty list (CCP treats a duplicate-position neighbour as
        fully redundant anyway).
        """
        d = self.center.distance_to(other.center)
        r0, r1 = self.radius, other.radius
        if d == 0.0:
            return []
        if d > r0 + r1 or d < abs(r0 - r1):
            return []
        # Distance from self.center to the chord midpoint.
        a = (r0 * r0 - r1 * r1 + d * d) / (2.0 * d)
        h_sq = r0 * r0 - a * a
        if h_sq < 0.0:
            h_sq = 0.0
        h = math.sqrt(h_sq)
        direction = (other.center - self.center) / d
        mid = self.center + direction * a
        if h == 0.0:
            return [mid]
        offset = direction.perpendicular() * h
        return [mid + offset, mid - offset]


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle ``[x_min, x_max] x [y_min, y_max]``."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self) -> None:
        if self.x_max < self.x_min or self.y_max < self.y_min:
            raise ValueError("rect must have non-negative extent")

    @staticmethod
    def square(side: float) -> "Rect":
        """A ``side x side`` square anchored at the origin."""
        return Rect(0.0, 0.0, side, side)

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    def area(self) -> float:
        return self.width * self.height

    def center(self) -> Vec2:
        return Vec2(
            (self.x_min + self.x_max) / 2.0,
            (self.y_min + self.y_max) / 2.0,
        )

    def contains(self, point: Vec2, tol: float = 0.0) -> bool:
        """Whether ``point`` is inside the rectangle (boundary included)."""
        return (
            self.x_min - tol <= point.x <= self.x_max + tol
            and self.y_min - tol <= point.y <= self.y_max + tol
        )

    def clamp(self, point: Vec2) -> Vec2:
        """Nearest point of the rectangle to ``point``."""
        return Vec2(
            min(max(point.x, self.x_min), self.x_max),
            min(max(point.y, self.y_min), self.y_max),
        )

    def corners(self) -> Tuple[Vec2, Vec2, Vec2, Vec2]:
        """The four corners, counter-clockwise from ``(x_min, y_min)``."""
        return (
            Vec2(self.x_min, self.y_min),
            Vec2(self.x_max, self.y_min),
            Vec2(self.x_max, self.y_max),
            Vec2(self.x_min, self.y_max),
        )
