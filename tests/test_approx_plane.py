"""Summary-plane unit tests: geometry, refresh, bounds, merging.

The plane (:mod:`repro.approx.plane`) answers query disks from cached
per-cell partial aggregates.  These tests pin the contract pieces the
end-to-end frontier benchmark leans on:

* radius-driven drill-down capped by the accuracy class;
* covering-cell geometry (outer = intersecting, inner = contained);
* beacon-window snapshot stamping and freshness/degraded accounting;
* per-aggregation error bounds that really bracket the exact answer;
* associative cross-shard merging (:func:`merge_answers`);
* report-overlay sharpening and session registration/release.
"""

import math

import pytest

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


def make_plane(side=400.0, per_row=8, sleep_period=3.0, field_model=None):
    sim = Simulator()
    positions = grid_positions(side, per_row)
    config = NetworkConfig(
        n_nodes=len(positions),
        region=Rect.square(side),
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
            x0, y0, x1, y1 = plane._cell_bounds(index, 2)
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
