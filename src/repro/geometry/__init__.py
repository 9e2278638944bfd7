"""2-D geometry primitives: vectors, circles, rectangles, grid.

A query area is a :class:`Circle` of radius ``Rq`` around the user (the
paper's Section 3), the same type that models radio and sensing ranges.
"""

from .grid import SpatialGrid
from .shapes import Circle, Rect
from .vec import Vec2

__all__ = [
    "Vec2",
    "Circle",
    "Rect",
    "SpatialGrid",
]
