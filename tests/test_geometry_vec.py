"""Unit tests for 2-D vector arithmetic."""

import math

import pytest

from repro.geometry.vec import Vec2


class TestConstruction:
    def test_zero(self):
        assert Vec2.zero() == Vec2(0.0, 0.0)

    def test_from_polar_east(self):
        v = Vec2.from_polar(2.0, 0.0)
        assert v.is_close(Vec2(2.0, 0.0))

    def test_from_polar_north(self):
        v = Vec2.from_polar(3.0, math.pi / 2)
        assert v.is_close(Vec2(0.0, 3.0))

    def test_immutability(self):
        v = Vec2(1.0, 2.0)
        with pytest.raises(AttributeError):
            v.x = 5.0  # type: ignore[misc]


class TestArithmetic:
    def test_add(self):
        assert Vec2(1, 2) + Vec2(3, 4) == Vec2(4, 6)

    def test_sub(self):
        assert Vec2(5, 5) - Vec2(2, 3) == Vec2(3, 2)

    def test_scalar_multiplication_both_sides(self):
        assert Vec2(1, -2) * 3 == Vec2(3, -6)
        assert 3 * Vec2(1, -2) == Vec2(3, -6)

    def test_division(self):
        assert Vec2(4, 8) / 2 == Vec2(2, 4)

    def test_negation(self):
        assert -Vec2(1, -2) == Vec2(-1, 2)

    def test_iteration_unpacks(self):
        x, y = Vec2(7, 9)
        assert (x, y) == (7, 9)


class TestMeasures:
    def test_norm_345(self):
        assert Vec2(3, 4).norm() == pytest.approx(5.0)

    def test_distance_symmetry(self):
        a, b = Vec2(0, 0), Vec2(6, 8)
        assert a.distance_to(b) == pytest.approx(b.distance_to(a)) == pytest.approx(10.0)

    def test_distance_sq(self):
        assert Vec2(0, 0).distance_sq_to(Vec2(1, 1)) == pytest.approx(2.0)


class TestTransforms:
    def test_normalized_has_unit_length(self):
        assert Vec2(3, 4).normalized().norm() == pytest.approx(1.0)

    def test_normalized_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            Vec2.zero().normalized()

    def test_perpendicular_is_orthogonal(self):
        v = Vec2(3, 4)
        p = v.perpendicular()
        assert v.x * p.x + v.y * p.y == pytest.approx(0.0)

    def test_is_close_tolerance(self):
        assert Vec2(1, 1).is_close(Vec2(1 + 1e-10, 1 - 1e-10))
        assert not Vec2(1, 1).is_close(Vec2(1.1, 1))
