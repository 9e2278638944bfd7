"""Property-based tests (hypothesis) on core data structures and invariants."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analysis import (
    AnalysisParams,
    interference_length_greedy,
    interference_length_jit,
    jit_forward_time,
    prefetch_length_greedy,
    prefetch_length_jit,
    warmup_periods,
)
from repro.core.query import AggregateState, Aggregation
from repro.geometry.grid import SpatialGrid
from repro.geometry.shapes import Circle
from repro.geometry.vec import Vec2
from repro.mobility.path import PiecewisePath, Waypoint
from repro.net.psm import PsmConfig

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
small = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)
vecs = st.builds(Vec2, small, small)


class TestVecProperties:
    @given(vecs, vecs)
    def test_addition_commutes(self, a, b):
        assert (a + b).is_close(b + a)

    @given(vecs, vecs, vecs)
    def test_addition_associates(self, a, b, c):
        assert ((a + b) + c).is_close(a + (b + c), tol=1e-6)

    @given(vecs)
    def test_additive_inverse(self, v):
        assert (v + (-v)).is_close(Vec2.zero(), tol=1e-9)

    @given(vecs, vecs)
    def test_triangle_inequality(self, a, b):
        assert (a + b).norm() <= a.norm() + b.norm() + 1e-6

    @given(vecs, vecs)
    def test_distance_symmetric(self, a, b):
        assert math.isclose(a.distance_to(b), b.distance_to(a), abs_tol=1e-9)


class TestCircleProperties:
    @given(vecs, st.floats(min_value=0.1, max_value=500.0),
           vecs, st.floats(min_value=0.1, max_value=500.0))
    def test_intersection_points_lie_on_both_circles(self, c1, r1, c2, r2):
        a = Circle(c1, r1)
        b = Circle(c2, r2)
        for p in a.intersection_points(b):
            assert math.isclose(c1.distance_to(p), r1, rel_tol=1e-6, abs_tol=1e-5)
            assert math.isclose(c2.distance_to(p), r2, rel_tol=1e-6, abs_tol=1e-5)

    @given(vecs, st.floats(min_value=0.1, max_value=500.0), vecs)
    def test_contains_consistent_with_distance(self, center, radius, point):
        circle = Circle(center, radius)
        assert circle.contains(point) == (center.distance_to(point) <= radius + 1e-9)


class TestAggregateProperties:
    readings = st.lists(
        st.tuples(st.integers(min_value=0, max_value=50),
                  st.floats(min_value=-100, max_value=100, allow_nan=False)),
        min_size=1, max_size=20,
    )

    @given(readings)
    def test_merge_matches_direct_computation(self, readings):
        agg = AggregateState()
        for nid, value in readings:
            agg.merge(AggregateState.from_reading(nid, value))
        # deduplicate by first reading per node (merge ignores repeats)
        first = {}
        for nid, value in readings:
            first.setdefault(nid, value)
        values = list(first.values())
        assert agg.count == len(values)
        assert math.isclose(agg.value(Aggregation.SUM), sum(values), abs_tol=1e-6)
        assert math.isclose(agg.value(Aggregation.MIN), min(values), abs_tol=1e-9)
        assert math.isclose(agg.value(Aggregation.MAX), max(values), abs_tol=1e-9)
        assert agg.contributors == set(first)

    @given(readings, readings)
    def test_merge_commutative_for_disjoint_partials(self, left, right):
        """The protocol invariant: each node reports to exactly one parent,
        so partials meeting at a merge point have disjoint contributors.
        Under that precondition merging is order-independent."""

        def build(readings, offset):
            agg = AggregateState()
            for nid, value in readings:
                agg.merge(AggregateState.from_reading(nid + offset, value))
            return agg

        # force disjoint id spaces (0-50 vs 1000-1050)
        ab = build(left, 0)
        ab.merge(build(right, 1000))
        ba = build(right, 1000)
        ba.merge(build(left, 0))
        assert ab.contributors == ba.contributors
        assert ab.count == ba.count
        assert math.isclose(
            ab.value(Aggregation.MIN), ba.value(Aggregation.MIN), abs_tol=1e-9
        )
        assert math.isclose(
            ab.value(Aggregation.MAX), ba.value(Aggregation.MAX), abs_tol=1e-9
        )
        assert math.isclose(
            ab.value(Aggregation.SUM), ba.value(Aggregation.SUM), abs_tol=1e-6
        )


class TestGridProperties:
    points = st.lists(
        st.tuples(st.floats(min_value=0, max_value=500, allow_nan=False),
                  st.floats(min_value=0, max_value=500, allow_nan=False)),
        min_size=0, max_size=60,
    )

    @given(points,
           st.floats(min_value=0, max_value=500, allow_nan=False),
           st.floats(min_value=0, max_value=500, allow_nan=False),
           st.floats(min_value=0.0, max_value=300.0))
    @settings(max_examples=50)
    def test_disk_query_equals_brute_force(self, points, cx, cy, radius):
        grid: SpatialGrid[int] = SpatialGrid(cell_size=50.0)
        positions = {}
        for i, (x, y) in enumerate(points):
            positions[i] = Vec2(x, y)
            grid.insert(i, positions[i])
        center = Vec2(cx, cy)
        # Same boundary predicate the grid documents: squared distance with
        # a 1e-9 epsilon.  (Comparing `distance <= radius + 1e-9` instead is
        # a *different* tolerance: for radius=0 and a point 1.2e-7 away the
        # squared form includes it and the linear form does not.)
        expected = {
            i
            for i, p in positions.items()
            if p.distance_sq_to(center) <= radius * radius + 1e-9
        }
        assert set(grid.query_disk(center, radius)) == expected


class TestPathProperties:
    @given(st.lists(
        st.tuples(st.floats(min_value=0, max_value=1e4, allow_nan=False), vecs),
        min_size=1, max_size=8, unique_by=lambda wp: round(wp[0], 3),
    ))
    def test_position_continuous_at_waypoints(self, raw):
        raw.sort(key=lambda wp: wp[0])
        waypoints = [Waypoint(t, p) for t, p in raw]
        path = PiecewisePath(waypoints)
        for wp in waypoints:
            assert path.position_at(wp.time).is_close(wp.position, tol=1e-6)

    @given(st.floats(min_value=0.1, max_value=100.0),
           vecs, vecs,
           st.floats(min_value=0.0, max_value=1.0))
    def test_constant_velocity_path_linear(self, duration, start, vel, frac):
        path = PiecewisePath.from_velocity(start, vel, 0.0, duration)
        t = duration * frac
        expected = start + vel * t
        assert path.position_at(t).is_close(expected, tol=1e-6 * (1 + expected.norm()))


class TestPsmProperties:
    @given(st.floats(min_value=1.0, max_value=30.0),
           st.floats(min_value=0.0, max_value=0.999),
           st.floats(min_value=0.0, max_value=1e4))
    @settings(max_examples=200)
    def test_next_window_start_strictly_future_and_in_window(self, interval, offset_frac, t):
        config = PsmConfig(
            beacon_interval_s=interval,
            active_window_s=min(0.1, interval / 2),
            offset_s=offset_frac * interval,
        )
        nxt = config.next_window_start(t)
        assert nxt > t
        assert config.in_window(nxt + 1e-9) or config.in_window(nxt)

    @given(st.integers(min_value=0, max_value=10_000),
           st.floats(min_value=1.0, max_value=30.0),
           st.floats(min_value=0.0, max_value=0.999))
    def test_window_starts_always_in_window(self, n, interval, offset_frac):
        config = PsmConfig(
            beacon_interval_s=interval,
            active_window_s=min(0.1, interval / 2),
            offset_s=offset_frac * interval,
        )
        t = config.offset_s + n * interval
        assert config.in_window(t)


class TestAnalysisProperties:
    params = st.builds(
        AnalysisParams,
        st.floats(min_value=0.5, max_value=20.0),   # Tperiod
        st.floats(min_value=0.1, max_value=10.0),   # Tfresh
        st.floats(min_value=1.0, max_value=30.0),   # Tsleep
        st.floats(min_value=0.5, max_value=30.0),   # vuser
        st.floats(min_value=50.0, max_value=500.0), # vprfh
    )

    @given(params)
    def test_jit_prefetch_length_positive(self, p):
        assert prefetch_length_jit(p) >= 2

    @given(params, st.floats(min_value=100.0, max_value=10_000.0))
    def test_greedy_grows_jit_does_not(self, p, lifetime):
        short = prefetch_length_greedy(lifetime, p)
        long = prefetch_length_greedy(lifetime * 3, p)
        assert long >= short

    @given(params, st.integers(min_value=1, max_value=100))
    def test_forward_time_monotone_in_k(self, p, k):
        assert jit_forward_time(k + 1, p) > jit_forward_time(k, p)

    @given(params, st.floats(min_value=-20.0, max_value=60.0))
    def test_warmup_nonincreasing_in_advance_time(self, p, ta):
        if p.speed_ratio >= 1.0:
            return
        assert warmup_periods(ta + 5.0, p) <= warmup_periods(ta, p)

    @given(params)
    def test_jit_interference_never_exceeds_greedy(self, p):
        assert interference_length_jit(150.0, 50.0, p) <= interference_length_greedy(
            150.0, 50.0, p
        )
