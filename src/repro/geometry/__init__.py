"""2-D geometry primitives: vectors, circles, rectangles, areas, grid."""

from .areas import (
    AreaTemplate,
    DiskTemplate,
    QueryArea,
    RectTemplate,
    SectorTemplate,
)
from .grid import SpatialGrid
from .shapes import Circle, Rect
from .vec import Vec2

__all__ = [
    "Vec2",
    "QueryArea",
    "AreaTemplate",
    "DiskTemplate",
    "SectorTemplate",
    "RectTemplate",
    "Circle",
    "Rect",
    "SpatialGrid",
]
