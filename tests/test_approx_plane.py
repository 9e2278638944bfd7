"""Summary-plane unit tests: geometry, refresh, bounds, merging.

The plane (:mod:`repro.approx.plane`) answers query disks from cached
per-cell partial aggregates.  These tests pin the contract pieces the
end-to-end frontier benchmark leans on:

* radius-driven drill-down capped by the accuracy class;
* covering-cell geometry (outer = intersecting, inner = contained);
* beacon-window snapshot stamping and freshness/degraded accounting;
* per-aggregation error bounds that really bracket the exact answer;
* associative cross-shard merging (:func:`merge_answers`);
* report-overlay sharpening and session registration/release;
* the covering window against a brute force over every cell, on a fringe
  lattice of disk edges a few ulp either side of a cell edge.
"""

import functools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.approx.plane import (
    ACCURACY_LEVEL_CAP,
    GRID_BASE,
    NUM_LEVELS,
    SummaryPlane,
    merge_answers,
)
from repro.core.query import Aggregation
from repro.geometry.shapes import Rect
from repro.geometry.vec import Vec2
from repro.net.field import ScalarField
from repro.net.network import NetworkConfig, build_network
from repro.sim.kernel import Simulator
from repro.sim.rng import RandomStreams

from .test_net_carrier_sense import OFFSETS


class EastwardRamp(ScalarField):
    """10 at the west edge, rising 0.05 per metre east (static)."""

    def value(self, position, time):
        return 10.0 + 0.05 * position.x


def grid_positions(side: float, per_row: int):
    """A per_row x per_row lattice spread over a ``side``-metre square."""
    step = side / per_row
    return [
        Vec2((i + 0.5) * step, (j + 0.5) * step)
        for j in range(per_row)
        for i in range(per_row)
    ]


def make_plane(
    side=400.0, per_row=8, sleep_period=3.0, field_model=None, region=None
):
    """A plane over a lattice field: ``side`` m square, or on ``region``
    (a shard's, say: its cells do not start at 0)."""
    sim = Simulator()
    positions = grid_positions(side, per_row)
    if region is None:
        region = Rect.square(side)
    else:
        positions = [Vec2(region.x_min + p.x, region.y_min + p.y) for p in positions]
    config = NetworkConfig(
        n_nodes=len(positions),
        region=region,
        comm_range_m=105.0,
        sensing_range_m=50.0,
        sleep_period_s=sleep_period,
        active_window_s=0.1,
        psm_offset_s=0.0,
    )
    network = build_network(
        sim,
        config,
        RandomStreams(7),
        field_model=field_model or EastwardRamp(),
        positions=positions,
    )
    return SummaryPlane(network)


class TestGeometry:
    def test_grid_shape_doubles_per_level(self):
        plane = make_plane()
        for level in range(NUM_LEVELS):
            n = GRID_BASE * (2**level)
            assert plane.grid_shape(level) == (n, n)
            assert plane.cell_size_m(level) == pytest.approx(400.0 / n)

    def test_every_node_is_a_member_at_every_level(self):
        plane = make_plane()
        for level in range(NUM_LEVELS):
            members = plane._members[level]
            total = sum(len(nodes) for nodes in members.values())
            assert total == len(plane.network.nodes)

    def test_covering_cells_outer_contains_inner(self):
        plane = make_plane()
        for level in range(NUM_LEVELS):
            outer, inner = plane._covering_cells(Vec2(200.0, 200.0), 90.0, level)
            assert outer, f"level {level} found no covering cells"
            assert set(inner) <= set(outer)

    def test_covering_cells_inner_really_contained(self):
        plane = make_plane()
        center, radius = Vec2(200.0, 200.0), 150.0
        outer, inner = plane._covering_cells(center, radius, 2)
        assert inner, "a 150 m disk must fully contain some 50 m cells"
        for index in inner:
            w, h = plane.cell_extent(2)
            x0, y0 = index[0] * w, index[1] * h
            x1, y1 = x0 + w, y0 + h
            for corner in ((x0, y0), (x0, y1), (x1, y0), (x1, y1)):
                d = math.hypot(corner[0] - center.x, corner[1] - center.y)
                assert d <= radius + 1e-9

    def test_drill_level_radius_driven_and_capped(self):
        plane = make_plane()  # level sizes: 100 m, 50 m, 25 m
        # a big disk stays coarse regardless of accuracy class
        assert plane.drill_level(90.0, "coarse") == 0
        assert plane.drill_level(90.0, "medium") == 0
        # a small disk drills as far as the class cap allows
        assert plane.drill_level(10.0, "coarse") == ACCURACY_LEVEL_CAP["coarse"]
        assert plane.drill_level(10.0, "medium") == ACCURACY_LEVEL_CAP["medium"]


#: fields the window property runs on: the default 450 m field, and the
#: east half of it, as a 2-shard cluster's second world holds it
WINDOW_REGIONS = [Rect.square(450.0), Rect(225.0, 0.0, 450.0, 450.0)]


@functools.lru_cache(maxsize=None)
def window_plane(region_index):
    region = WINDOW_REGIONS[region_index]
    return make_plane(side=region.width, region=region)


def brute_force_covering(plane, center, radius_m, level):
    """(outer, inner) over every cell of ``level``, each cell tested on the
    bounds ``origin + i * side`` with the plane's exact tests: its nearest
    point within the radius, and its farthest corner within it."""
    n, _ = plane.grid_shape(level)
    region = plane.region
    w, h = region.width / n, region.height / n
    r_sq = radius_m * radius_m
    outer, inner = set(), set()
    for i in range(n):
        for j in range(n):
            x0 = region.x_min + i * w
            y0 = region.y_min + j * h
            x1, y1 = x0 + w, y0 + h
            dx = min(max(center.x, x0), x1) - center.x
            dy = min(max(center.y, y0), y1) - center.y
            if dx * dx + dy * dy > r_sq:
                continue
            outer.add((i, j))
            fx = (x0 if center.x - x0 > x1 - center.x else x1) - center.x
            fy = (y0 if center.y - y0 > y1 - center.y else y1) - center.y
            if fx * fx + fy * fy <= r_sq:
                inner.add((i, j))
    return outer, inner


def nudged(value, nudge):
    """``value`` moved by whole ulps (an int) or by metres (a float)."""
    if isinstance(nudge, float):
        return value + nudge
    for _ in range(abs(nudge)):
        value = math.nextafter(value, math.copysign(math.inf, nudge))
    return value


#: how far a coordinate sits off its lattice point: the carrier-sense
#: fringe's metres, or up to three ulp either way
nudges = st.one_of(st.sampled_from(OFFSETS), st.integers(min_value=-3, max_value=3))


@st.composite
def fringe_disks(draw):
    """A disk whose edge (or centre) sits within a nudge of a cell edge of
    some level, its centre often off the field."""
    region_index = draw(st.integers(min_value=0, max_value=len(WINDOW_REGIONS) - 1))
    region = WINDOW_REGIONS[region_index]
    radius = draw(
        st.one_of(
            st.sampled_from([10.0, 28.125, 56.25, 75.0, 105.0, 150.0]),
            st.floats(min_value=1.0, max_value=250.0),
        )
    )
    n = GRID_BASE * 2 ** draw(st.integers(min_value=0, max_value=NUM_LEVELS - 1))

    def coordinate(lo, extent):
        edge = lo + draw(st.integers(min_value=0, max_value=n)) * (extent / n)
        reach = draw(st.sampled_from([-radius, 0.0, radius, -0.5 * radius]))
        return nudged(edge + reach, draw(nudges))

    center = Vec2(
        coordinate(region.x_min, region.width), coordinate(region.y_min, region.height)
    )
    return region_index, center, radius


class TestCoveringWindow:
    """``_covering_cells``' window must hold every cell its exact test
    accepts, wherever the disk's edge falls against the cell edges."""

    @settings(max_examples=400, deadline=None)
    @given(disk=fringe_disks())
    def test_covering_cells_equal_a_brute_force_over_every_cell(self, disk):
        region_index, center, radius = disk
        plane = window_plane(region_index)
        for level in range(NUM_LEVELS):
            outer, inner = plane._covering_cells(center, radius, level)
            assert len(set(outer)) == len(outer)
            assert (set(outer), set(inner)) == brute_force_covering(
                plane, center, radius, level
            )

    def test_window_reaches_a_cell_touched_past_the_bare_radius(self):
        """The disk's east edge lands 1.4e-14 m short of cell (1, 6)'s
        west edge, and the distance rounds to exactly the radius: the exact
        test accepts the cell, and a window stopped at the bare radius
        never offered it."""
        plane = window_plane(0)
        center = Vec2(-18.750000000000007, 388.2487360742308)
        outer, inner = plane._covering_cells(center, 75.0, 1)
        assert sorted(outer) == [(0, 5), (0, 6), (0, 7), (1, 6)]
        assert (set(outer), set(inner)) == brute_force_covering(plane, center, 75.0, 1)


class TestRefreshAndFreshness:
    def test_snapshot_stamped_at_window_opening(self):
        plane = make_plane(sleep_period=3.0)
        plane.sim.run(until=7.0)  # most recent window opened at 6.0
        answer = plane.answer(
            Vec2(200.0, 200.0), 90.0, "coarse", 3.0, Aggregation.AVG
        )
        assert answer is not None
        assert answer.age_s == pytest.approx(1.0)
        assert not answer.degraded

    def test_stale_summary_is_degraded_not_silent(self):
        plane = make_plane(sleep_period=9.0)
        plane.sim.run(until=8.0)  # last window at 0.0 -> 8 s old
        answer = plane.answer(
            Vec2(200.0, 200.0), 90.0, "coarse", 1.0, Aggregation.AVG
        )
        assert answer is not None
        assert answer.age_s == pytest.approx(8.0)
        assert answer.degraded

    def test_snapshot_advances_with_the_beacon_schedule(self):
        plane = make_plane(sleep_period=3.0)
        plane.sim.run(until=1.0)
        first = plane.answer(
            Vec2(200.0, 200.0), 90.0, "coarse", 10.0, Aggregation.AVG
        )
        plane.sim.run(until=6.5)  # two more windows opened since
        second = plane.answer(
            Vec2(200.0, 200.0), 90.0, "coarse", 10.0, Aggregation.AVG
        )
        assert first.age_s == pytest.approx(1.0)
        assert second.age_s == pytest.approx(0.5)

    def test_observe_overlays_only_materialised_cells(self):
        plane = make_plane()
        node = plane.network.nodes[0]
        # nothing materialised yet: the overlay must not grow state
        plane.observe(node.node_id, node.position, 99.0, 0.0)
        assert all(not cells for cells in plane._cells)
        # materialise by answering, then overhear a fresher reading
        plane.answer(node.position, 90.0, "coarse", 10.0, Aggregation.MAX)
        plane.observe(node.node_id, node.position, 99.0, 0.0)
        answer = plane.answer(node.position, 90.0, "coarse", 10.0, Aggregation.MAX)
        assert answer.value == pytest.approx(99.0)


class TestErrorBounds:
    def exact_disk_value(self, plane, center, radius, aggregation):
        values = [
            node.field.value(node.position, 0.0)
            for node in plane.network.nodes
            if math.hypot(node.position.x - center.x, node.position.y - center.y)
            <= radius
        ]
        assert values, "test disk must contain nodes"
        if aggregation is Aggregation.AVG:
            return sum(values) / len(values)
        if aggregation is Aggregation.MIN:
            return min(values)
        if aggregation is Aggregation.MAX:
            return max(values)
        if aggregation is Aggregation.SUM:
            return sum(values)
        return len(values)

    @pytest.mark.parametrize(
        "aggregation",
        [
            Aggregation.AVG,
            Aggregation.MIN,
            Aggregation.MAX,
            Aggregation.SUM,
            Aggregation.COUNT,
        ],
    )
    @pytest.mark.parametrize("accuracy", ["coarse", "medium"])
    def test_bound_brackets_the_exact_answer(self, aggregation, accuracy):
        plane = make_plane()
        center, radius = Vec2(180.0, 220.0), 80.0
        answer = plane.answer(center, radius, accuracy, 10.0, aggregation)
        assert answer is not None
        exact = self.exact_disk_value(plane, center, radius, aggregation)
        assert abs(answer.value - exact) <= answer.error_bound + 1e-9

    def test_medium_never_looser_than_coarse(self):
        plane = make_plane()
        center, radius = Vec2(180.0, 220.0), 40.0
        coarse = plane.answer(center, radius, "coarse", 10.0, Aggregation.AVG)
        medium = plane.answer(center, radius, "medium", 10.0, Aggregation.AVG)
        assert medium.level >= coarse.level
        assert medium.error_bound <= coarse.error_bound + 1e-9

    def test_contributors_cover_the_disk(self):
        plane = make_plane()
        center, radius = Vec2(200.0, 200.0), 90.0
        answer = plane.answer(center, radius, "coarse", 10.0, Aggregation.AVG)
        in_disk = {
            node.node_id
            for node in plane.network.nodes
            if math.hypot(node.position.x - center.x, node.position.y - center.y)
            <= radius
        }
        assert in_disk <= set(answer.contributor_ids)


class TestSessions:
    def test_register_answer_release(self):
        plane = make_plane()
        key = (0, 1)
        plane.register_session(key, "coarse")
        assert plane.session_count() == 1
        plane.answer(
            Vec2(200.0, 200.0), 90.0, "coarse", 10.0, Aggregation.AVG,
            session_key=key,
        )
        assert plane._sessions[key].answers == 1
        assert plane._sessions[key].last_level == 0
        plane.release_session(key)
        plane.release_session(key)  # idempotent
        assert plane.session_count() == 0

    def test_exact_accuracy_rejected(self):
        plane = make_plane()
        with pytest.raises(ValueError, match="does not use the summary plane"):
            plane.register_session((0, 1), "exact")


class TestMergeAnswers:
    def test_merge_matches_single_world(self):
        """Splitting the cells across 'shards' must not move the answer."""
        plane = make_plane()
        center, radius = Vec2(200.0, 200.0), 90.0
        for aggregation in (Aggregation.AVG, Aggregation.SUM, Aggregation.MIN,
                            Aggregation.MAX, Aggregation.COUNT):
            whole = plane.answer(center, radius, "coarse", 10.0, aggregation)
            merged = merge_answers([whole], aggregation)
            assert merged.value == pytest.approx(whole.value)
            assert merged.error_bound == pytest.approx(whole.error_bound)
            assert merged.contributors == whole.contributors

    def test_merge_composes_disjoint_statistics(self):
        plane = make_plane()
        left = plane.answer(
            Vec2(100.0, 200.0), 60.0, "coarse", 10.0, Aggregation.COUNT
        )
        right = plane.answer(
            Vec2(300.0, 200.0), 60.0, "coarse", 10.0, Aggregation.COUNT
        )
        merged = merge_answers([left, right], Aggregation.COUNT)
        assert merged.count == left.count + right.count
        assert merged.minimum == min(left.minimum, right.minimum)
        assert merged.maximum == max(left.maximum, right.maximum)
        assert merged.cells == left.cells + right.cells
        assert merged.contributor_ids == frozenset()

    def test_merge_handles_empty_and_none(self):
        assert merge_answers([], Aggregation.AVG) is None
        assert merge_answers([None, None], Aggregation.AVG) is None

    def test_merge_propagates_degraded(self):
        plane = make_plane(sleep_period=9.0)
        plane.sim.run(until=8.0)
        stale = plane.answer(
            Vec2(200.0, 200.0), 90.0, "coarse", 1.0, Aggregation.AVG
        )
        assert stale.degraded
        merged = merge_answers([stale], Aggregation.AVG)
        assert merged.degraded
        assert merged.age_s == pytest.approx(stale.age_s)
