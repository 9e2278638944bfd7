"""Tests for piecewise paths and mobility models."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.shapes import Rect
from repro.geometry.vec import Vec2
from repro.mobility.models import (
    RandomDirectionConfig,
    patrol_path,
    random_direction_path,
)
from repro.mobility.path import PiecewisePath, Waypoint


class TestPiecewisePath:
    def test_needs_waypoints(self):
        with pytest.raises(ValueError):
            PiecewisePath([])

    def test_times_strictly_increasing(self):
        with pytest.raises(ValueError):
            PiecewisePath([Waypoint(0, Vec2(0, 0)), Waypoint(0, Vec2(1, 1))])

    def test_stationary(self):
        path = PiecewisePath.stationary(Vec2(5, 5))
        assert path.position_at(-10) == Vec2(5, 5)
        assert path.position_at(100) == Vec2(5, 5)

    def test_interpolation(self):
        path = PiecewisePath([Waypoint(0, Vec2(0, 0)), Waypoint(10, Vec2(10, 20))])
        assert path.position_at(5).is_close(Vec2(5, 10))

    def test_clamped_outside_span(self):
        path = PiecewisePath([Waypoint(1, Vec2(0, 0)), Waypoint(2, Vec2(10, 0))])
        assert path.position_at(0) == Vec2(0, 0)
        assert path.position_at(3) == Vec2(10, 0)

    def test_from_velocity(self):
        path = PiecewisePath.from_velocity(Vec2(0, 0), Vec2(2, 0), start_time=5, duration=10)
        assert path.position_at(10).is_close(Vec2(10, 0))
        assert path.end_time == 15

    def test_from_velocity_needs_positive_duration(self):
        with pytest.raises(ValueError):
            PiecewisePath.from_velocity(Vec2(0, 0), Vec2(1, 0), 0, 0)

    def test_restricted(self):
        path = PiecewisePath(
            [Waypoint(0, Vec2(0, 0)), Waypoint(10, Vec2(10, 0)), Waypoint(20, Vec2(20, 10))]
        )
        sub = path.restricted(5, 15)
        assert sub.start_time == 5
        assert sub.end_time == 15
        assert sub.position_at(5).is_close(path.position_at(5))
        assert sub.position_at(10).is_close(path.position_at(10))
        assert sub.position_at(15).is_close(path.position_at(15))

    def test_restricted_empty_rejected(self):
        path = PiecewisePath.stationary(Vec2(0, 0))
        with pytest.raises(ValueError):
            path.restricted(5, 5)

    def test_change_times(self):
        path = PiecewisePath(
            [Waypoint(0, Vec2(0, 0)), Waypoint(10, Vec2(1, 0)), Waypoint(20, Vec2(2, 0))]
        )
        assert path.change_times() == [10]


def _bits(value):
    return struct.pack("<d", value)


def _evaluate(piece, t):
    """A motion piece at ``t``, the way the channel's range test does it."""
    t_lo, t_hi, t_ref, span, x0, dx, y0, dy = piece
    assert t_lo <= t < t_hi
    frac = (t - t_ref) / span
    return x0 + dx * frac, y0 + dy * frac


# -0.0 is a legal coordinate and distinct bitwise; hops may be zero-length
# (the user waits) and a path may be a single waypoint (the user stands)
_coords = st.one_of(
    st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
    st.sampled_from([0.0, -0.0, 105.0]),
)
_hops = st.tuples(
    st.floats(min_value=1e-3, max_value=100.0, allow_nan=False),
    st.one_of(st.none(), st.tuples(_coords, _coords)),  # None: stay put
)
_instants = st.floats(min_value=-500.0, max_value=3000.0, allow_nan=False)


@st.composite
def _paths(draw):
    time = draw(st.floats(min_value=-100.0, max_value=100.0, allow_nan=False))
    position = Vec2(draw(_coords), draw(_coords))
    waypoints = [Waypoint(time, position)]
    for gap, target in draw(st.lists(_hops, max_size=6)):
        time += gap
        if target is not None:
            position = Vec2(*target)
        waypoints.append(Waypoint(time, position))
    return PiecewisePath(waypoints)


class TestSegmentAt:
    """``segment_at`` pieces evaluate to ``position_at`` bit for bit."""

    @staticmethod
    def _assert_bit_equal(path, piece, t):
        x, y = _evaluate(piece, t)
        expected = path.position_at(t)
        assert (_bits(x), _bits(y)) == (_bits(expected.x), _bits(expected.y)), (t, piece)

    @settings(max_examples=300, deadline=None)
    @given(path=_paths(), extra=st.lists(_instants, max_size=8))
    def test_piece_at_an_instant_is_position_at(self, path, extra):
        times = [w.time for w in path.waypoints]
        queries = times + extra + [
            times[0] - 1.0, times[0] - 1e-9, times[-1] + 1e-9, times[-1] + 1.0,
            *(0.5 * (a + b) for a, b in zip(times, times[1:])),
        ]
        for t in queries:
            self._assert_bit_equal(path, path.segment_at(t), t)

    @settings(max_examples=300, deadline=None)
    @given(path=_paths(), sweep=st.lists(_instants, min_size=1, max_size=60))
    def test_held_piece_is_position_at_until_it_ends(self, path, sweep):
        """The channel's use: keep a piece, ask again only on leaving it."""
        times = [w.time for w in path.waypoints]
        piece = (float("inf"), float("-inf"), 0.0, 1.0, 0.0, 0.0, 0.0, 0.0)
        asked = 0
        for t in sorted(sweep + times):
            if not piece[0] <= t < piece[1]:
                piece = path.segment_at(t)
                asked += 1
            self._assert_bit_equal(path, piece, t)
        assert asked <= len(times) + 1  # one per piece, clamped ends included

    def test_pieces_tile_the_time_axis(self):
        path = PiecewisePath(
            [Waypoint(1, Vec2(0, 0)), Waypoint(2, Vec2(10, 0)), Waypoint(4, Vec2(10, 30))]
        )
        before, first, second, after = (path.segment_at(t) for t in (0.0, 1.5, 2.0, 4.0))
        assert before[0] == float("-inf") and after[1] == float("inf")
        assert first[:2] == (1, 2) and second[:2] == (2, 4)
        assert after[0] == 4
        # position_at clamps with ``<=``: the first waypoint's own instant
        # belongs to the leading piece, and nothing later does
        assert path.segment_at(1.0) == before
        assert 1.0 < before[1] <= first[0] + 1e-12


class TestRandomDirectionModel:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            RandomDirectionConfig(speed_range=(5.0, 3.0))
        with pytest.raises(ValueError):
            RandomDirectionConfig(change_interval_s=0.0)

    def test_path_stays_in_region(self):
        region = Rect.square(450.0)
        config = RandomDirectionConfig(speed_range=(3, 5), change_interval_s=50.0)
        rng = np.random.default_rng(11)
        path = random_direction_path(region, 400.0, config, rng)
        for t in np.linspace(0, 400, 200):
            assert region.contains(path.position_at(float(t)), tol=1e-6)

    def test_speed_within_range(self):
        region = Rect.square(450.0)
        config = RandomDirectionConfig(speed_range=(3, 5), change_interval_s=50.0)
        rng = np.random.default_rng(11)
        path = random_direction_path(region, 400.0, config, rng)
        for t in (10.0, 60.0, 120.0, 390.0):
            _, _, _, span, _, dx, _, dy = path.segment_at(t)
            speed = math.hypot(dx, dy) / span
            assert speed <= 5.0 + 1e-9
            # the centre-escape fallback may go below the minimum, but a
            # normal leg respects it
            assert speed > 0.0

    def test_changes_at_interval(self):
        region = Rect.square(1000.0)
        config = RandomDirectionConfig(speed_range=(3, 5), change_interval_s=50.0)
        rng = np.random.default_rng(2)
        path = random_direction_path(region, 200.0, config, rng)
        assert path.change_times() == [50.0, 100.0, 150.0]

    def test_reproducible(self):
        region = Rect.square(450.0)
        config = RandomDirectionConfig()
        a = random_direction_path(region, 100.0, config, np.random.default_rng(9))
        b = random_direction_path(region, 100.0, config, np.random.default_rng(9))
        assert a.position_at(77.0).is_close(b.position_at(77.0))

    def test_default_start_near_corner(self):
        region = Rect.square(450.0)
        config = RandomDirectionConfig()
        path = random_direction_path(region, 50.0, config, np.random.default_rng(1))
        assert path.position_at(0.0).is_close(Vec2(20, 20))


class TestPatrolPath:
    def test_visits_waypoints_in_order(self):
        path = patrol_path([Vec2(0, 0), Vec2(100, 0), Vec2(100, 100)], speed=10.0)
        assert path.position_at(0).is_close(Vec2(0, 0))
        assert path.position_at(10).is_close(Vec2(100, 0))
        assert path.position_at(20).is_close(Vec2(100, 100))

    def test_loops(self):
        path = patrol_path([Vec2(0, 0), Vec2(10, 0)], speed=10.0, loops=2)
        # 0 ->10 ->0 ->10: total 3 hops of 1 s each
        assert path.end_time == pytest.approx(3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            patrol_path([Vec2(0, 0)], speed=1.0)
        with pytest.raises(ValueError):
            patrol_path([Vec2(0, 0), Vec2(1, 0)], speed=0.0)
