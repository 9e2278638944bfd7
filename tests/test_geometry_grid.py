"""Unit tests for the spatial hash grid."""

import numpy as np
import pytest

from repro.geometry.grid import SpatialGrid
from repro.geometry.vec import Vec2

from .test_net_carrier_sense import OFFSETS


@pytest.fixture
def grid():
    g: SpatialGrid[str] = SpatialGrid(cell_size=10.0)
    g.insert("a", Vec2(0, 0))
    g.insert("b", Vec2(5, 5))
    g.insert("c", Vec2(50, 50))
    return g


class TestRegistration:
    def test_invalid_cell_size(self):
        with pytest.raises(ValueError):
            SpatialGrid(cell_size=0.0)

    def test_duplicate_insert_rejected(self, grid):
        with pytest.raises(ValueError):
            grid.insert("a", Vec2(1, 1))

    def test_len_and_contains(self, grid):
        assert len(grid) == 3
        assert "a" in grid
        assert "zzz" not in grid


class TestDiskQueries:
    def test_query_disk_finds_inside_only(self, grid):
        found = set(grid.query_disk(Vec2(0, 0), 8.0))
        assert found == {"a", "b"}

    def test_query_disk_boundary_included(self, grid):
        found = grid.query_disk(Vec2(0, 0), Vec2(0, 0).distance_to(Vec2(5, 5)))
        assert "b" in found

    def test_query_disk_negative_radius(self, grid):
        assert grid.query_disk(Vec2(0, 0), -1.0) == []

    @pytest.mark.parametrize("beyond", OFFSETS)
    def test_slack_of_the_range_test_reaches_across_a_cell_edge(self, beyond):
        """``d^2 <= r^2 + 1e-9`` accepts an item up to 4.76e-12 m beyond a
        105 m radius; the answer must not depend on whether a cell edge
        falls in that sliver (it did: the window stopped at the radius).
        ``beyond`` runs over the carrier-sense fringe lattice: either side
        of the edge, on the threshold and a nanometre off."""
        grid: SpatialGrid[str] = SpatialGrid(cell_size=105.0)
        item = Vec2(210.0 - beyond, 50.0)  # cell 1 unless exactly on the edge
        grid.insert("west", item)
        grid.insert("south", Vec2(50.0, 210.0 - beyond))
        dx = 315.0 - item.x
        expected = dx * dx <= 105.0 * 105.0 + 1e-9
        # in range up to 4e-12 m past the edge; the threshold's own offset
        # lands a rounding past it once subtracted from 210
        assert expected == (beyond <= 4e-12)
        assert (grid.query_disk(Vec2(315.0, 50.0), 105.0) == ["west"]) == expected
        assert (grid.query_disk(Vec2(50.0, 315.0), 105.0) == ["south"]) == expected

    def test_matches_brute_force(self):
        rng = np.random.default_rng(42)
        grid: SpatialGrid[int] = SpatialGrid(cell_size=7.0)
        points = {}
        for i in range(300):
            p = Vec2(float(rng.uniform(0, 100)), float(rng.uniform(0, 100)))
            points[i] = p
            grid.insert(i, p)
        for _ in range(25):
            center = Vec2(float(rng.uniform(0, 100)), float(rng.uniform(0, 100)))
            radius = float(rng.uniform(1, 40))
            expected = {
                i for i, p in points.items() if p.distance_to(center) <= radius + 1e-9
            }
            assert set(grid.query_disk(center, radius)) == expected

