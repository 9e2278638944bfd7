"""The one cell rule, and the spatial hash grid built on it.

Every module that addresses space by cell (the channel's static grid and
mobile index, the summary plane's levels, the cluster's shard test, GAF's
virtual grid, the ASCII renderer) asks these functions, on bare floats,
with its own grid origin and cell sides: :func:`cell_of` (which cell holds a
point), :func:`cell_window` (which cells an interval spans, widened by the
one :data:`_WINDOW_SLACK_M`), :func:`cell_bounds` (a cell's rectangle) and
:func:`gap_sq` (the one disk-versus-rectangle test).  A fringe bug is then
fixed once for every client.  :class:`SpatialGrid` answers disk queries
over static items in time proportional to the local density.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Generic, List, Tuple, TypeVar

from .vec import Vec2

T = TypeVar("T")

#: Metres a disk query's window of cells reaches beyond its radius.  The
#: range test accepts ``d^2 <= r^2 + 1e-9`` — up to ``sqrt(1e-9)`` m past
#: ``r`` (4.8e-12 m at r = 105) — and an item that far outside the disk can
#: lie across a cell edge the bare radius stops at, as can a cell that a
#: disk's rounded edge touches.  The window has to hold every item and cell
#: the exact test would accept, wherever the cell edges fall.
_WINDOW_SLACK_M = 1e-4


def cell_of(
    x: float, y: float, x0: float, y0: float, w: float, h: float
) -> Tuple[int, int]:
    """The cell holding ``(x, y)``: floor division from the origin ``(x0, y0)``."""
    return (int((x - x0) // w), int((y - y0) // h))


def cell_window(lo: float, hi: float, origin: float, side: float) -> Tuple[int, int]:
    """First and last index of the cells along one axis that ``[lo, hi]``
    spans, widened by :data:`_WINDOW_SLACK_M` at both ends."""
    return (
        int((lo - _WINDOW_SLACK_M - origin) // side),
        int((hi + _WINDOW_SLACK_M - origin) // side),
    )


def cell_bounds(
    i: int, j: int, x0: float, y0: float, w: float, h: float
) -> Tuple[float, float, float, float]:
    """Cell ``(i, j)``'s rectangle ``(x_lo, y_lo, x_hi, y_hi)``."""
    x_lo = x0 + i * w
    y_lo = y0 + j * h
    return (x_lo, y_lo, x_lo + w, y_lo + h)


def gap_sq(
    x: float, y: float, x_lo: float, y_lo: float, x_hi: float, y_hi: float
) -> float:
    """Squared distance from ``(x, y)`` to the rectangle, 0 inside it: a
    disk of radius ``r`` meets the rectangle iff this is ``<= r * r``."""
    dx = x_lo - x if x < x_lo else x - x_hi if x > x_hi else 0.0
    dy = y_lo - y if y < y_lo else y - y_hi if y > y_hi else 0.0
    return dx * dx + dy * dy


class SpatialGrid(Generic[T]):
    """Uniform grid mapping cell coordinates to the items placed in them.

    Items are arbitrary hashable objects registered together with a fixed
    position.  ``cell_size`` should be on the order of the most common query
    radius (the radio range works well) so that disk queries touch only a
    handful of cells.  The grid's origin is ``(0, 0)``.
    """

    def __init__(self, cell_size: float) -> None:
        if cell_size <= 0:
            raise ValueError(f"cell_size must be > 0, got {cell_size}")
        self.cell_size = cell_size
        self._cells: Dict[Tuple[int, int], List[Tuple[Vec2, T]]] = defaultdict(list)
        self._positions: Dict[T, Vec2] = {}

    def insert(self, item: T, position: Vec2) -> None:
        """Register ``item`` at ``position``.

        Raises:
            ValueError: if the item was already inserted (static field —
                re-registration is almost certainly a bug).
        """
        if item in self._positions:
            raise ValueError(f"item {item!r} already present in grid")
        self._positions[item] = position
        cs = self.cell_size
        self._cells[cell_of(position.x, position.y, 0.0, 0.0, cs, cs)].append(
            (position, item)
        )

    def __len__(self) -> int:
        return len(self._positions)

    def __contains__(self, item: T) -> bool:
        return item in self._positions

    def query_disk(self, center: Vec2, radius: float) -> List[T]:
        """All items within ``radius`` of ``center`` (boundary included),
        cell by cell in window order, each cell's in insertion order."""
        if radius < 0:
            return []
        r_sq = radius * radius
        cs = self.cell_size
        cx_min, cx_max = cell_window(center.x - radius, center.x + radius, 0.0, cs)
        cy_min, cy_max = cell_window(center.y - radius, center.y + radius, 0.0, cs)
        found: List[T] = []
        cells = self._cells
        for cx in range(cx_min, cx_max + 1):
            for cy in range(cy_min, cy_max + 1):
                bucket = cells.get((cx, cy))
                if not bucket:
                    continue
                for position, item in bucket:
                    dx = position.x - center.x
                    dy = position.y - center.y
                    if dx * dx + dy * dy <= r_sq + 1e-9:
                        found.append(item)
        return found
