"""Two-dimensional points and vectors.

The whole simulator works in a flat 2-D plane measured in metres, matching
the paper's 450 m x 450 m deployment region.  ``Vec2`` is deliberately a
tiny immutable value type: positions, velocities and displacements are all
``Vec2`` instances, and the hot paths (channel neighbour checks, routing
progress computations) only ever need squared distances and linear
interpolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True, slots=True)
class Vec2:
    """An immutable 2-D vector/point with float components.

    ``slots=True`` matters: Vec2 is allocated and read constantly on the
    channel/mobility hot paths, and slot access skips the per-instance dict.
    """

    x: float
    y: float

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def zero() -> "Vec2":
        """The origin / null displacement."""
        return Vec2(0.0, 0.0)

    @staticmethod
    def from_polar(magnitude: float, angle: float) -> "Vec2":
        """Build a vector from a magnitude and an angle in radians."""
        return Vec2(magnitude * math.cos(angle), magnitude * math.sin(angle))

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def __mul__(self, scalar: float) -> "Vec2":
        return Vec2(self.x * scalar, self.y * scalar)

    def __rmul__(self, scalar: float) -> "Vec2":
        return Vec2(self.x * scalar, self.y * scalar)

    def __truediv__(self, scalar: float) -> "Vec2":
        return Vec2(self.x / scalar, self.y / scalar)

    def __neg__(self) -> "Vec2":
        return Vec2(-self.x, -self.y)

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y

    # ------------------------------------------------------------------
    # Measures
    # ------------------------------------------------------------------
    def norm(self) -> float:
        """Euclidean length."""
        return math.hypot(self.x, self.y)

    def distance_to(self, other: "Vec2") -> float:
        """Euclidean distance to ``other``."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def distance_sq_to(self, other: "Vec2") -> float:
        """Squared Euclidean distance to ``other``."""
        dx = self.x - other.x
        dy = self.y - other.y
        return dx * dx + dy * dy

    # ------------------------------------------------------------------
    # Transforms
    # ------------------------------------------------------------------
    def normalized(self) -> "Vec2":
        """Unit vector in the same direction.

        Raises:
            ZeroDivisionError: for the zero vector, which has no direction.
        """
        n = self.norm()
        if n == 0.0:
            raise ZeroDivisionError("cannot normalize the zero vector")
        return Vec2(self.x / n, self.y / n)

    def perpendicular(self) -> "Vec2":
        """The vector rotated +90 degrees."""
        return Vec2(-self.y, self.x)

    def is_close(self, other: "Vec2", tol: float = 1e-9) -> bool:
        """Approximate equality within absolute tolerance ``tol``."""
        return abs(self.x - other.x) <= tol and abs(self.y - other.y) <= tol

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Vec2({self.x:.3f}, {self.y:.3f})"
