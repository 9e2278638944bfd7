"""Spatial hash grid for neighbourhood queries.

The sensor field is static, so neighbour discovery is a one-time cost — but
the mobile user's proxy re-queries "which nodes are within range of me?" on
every contact, and experiment code repeatedly asks "which nodes fall in this
query area?".  A uniform bucket grid answers disk queries in time
proportional to the local density instead of scanning all nodes.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Generic, List, Tuple, TypeVar

from .vec import Vec2

T = TypeVar("T")

#: Metres a disk query's window of cells reaches beyond its radius.  The
#: range test accepts ``d^2 <= r^2 + 1e-9`` — up to ``sqrt(1e-9)`` m past
#: ``r`` (4.8e-12 m at r = 105) — and an item that far outside the disk can
#: lie across a cell edge the bare radius stops at; the window has to hold
#: every item the test would accept, wherever the cell edges fall.
_WINDOW_SLACK_M = 1e-4


class SpatialGrid(Generic[T]):
    """Uniform grid mapping cell coordinates to the items placed in them.

    Items are arbitrary hashable objects registered together with a fixed
    position.  ``cell_size`` should be on the order of the most common query
    radius (the radio range works well) so that disk queries touch only a
    handful of cells.
    """

    def __init__(self, cell_size: float) -> None:
        if cell_size <= 0:
            raise ValueError(f"cell_size must be > 0, got {cell_size}")
        self.cell_size = cell_size
        self._cells: Dict[Tuple[int, int], List[Tuple[Vec2, T]]] = defaultdict(list)
        self._positions: Dict[T, Vec2] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def _cell_of(self, point: Vec2) -> Tuple[int, int]:
        return (int(point.x // self.cell_size), int(point.y // self.cell_size))

    def insert(self, item: T, position: Vec2) -> None:
        """Register ``item`` at ``position``.

        Raises:
            ValueError: if the item was already inserted (static field —
                re-registration is almost certainly a bug).
        """
        if item in self._positions:
            raise ValueError(f"item {item!r} already present in grid")
        self._positions[item] = position
        self._cells[self._cell_of(position)].append((position, item))

    def __len__(self) -> int:
        return len(self._positions)

    def __contains__(self, item: T) -> bool:
        return item in self._positions

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query_disk(self, center: Vec2, radius: float) -> List[T]:
        """All items within ``radius`` of ``center`` (boundary included)."""
        if radius < 0:
            return []
        r_sq = radius * radius
        cs = self.cell_size
        reach = radius + _WINDOW_SLACK_M
        cx_min = int((center.x - reach) // cs)
        cx_max = int((center.x + reach) // cs)
        cy_min = int((center.y - reach) // cs)
        cy_max = int((center.y + reach) // cs)
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

    def query_disk_excluding(
        self, center: Vec2, radius: float, excluded: T
    ) -> List[T]:
        """Disk query that drops one item (typically the querying node).

        The excluded item is skipped while collecting, not filtered from a
        fully built candidate list afterwards (this runs once per node at
        network construction over every node's neighbourhood).
        """
        if radius < 0:
            return []
        r_sq = radius * radius
        cs = self.cell_size
        reach = radius + _WINDOW_SLACK_M
        cx_min = int((center.x - reach) // cs)
        cx_max = int((center.x + reach) // cs)
        cy_min = int((center.y - reach) // cs)
        cy_max = int((center.y + reach) // cs)
        found: List[T] = []
        cells = self._cells
        for cx in range(cx_min, cx_max + 1):
            for cy in range(cy_min, cy_max + 1):
                bucket = cells.get((cx, cy))
                if not bucket:
                    continue
                for position, item in bucket:
                    if item == excluded:
                        continue
                    dx = position.x - center.x
                    dy = position.y - center.y
                    if dx * dx + dy * dy <= r_sq + 1e-9:
                        found.append(item)
        return found
