"""Unit tests for circles and rectangles."""

import math

import pytest

from repro.geometry.shapes import Circle, Rect
from repro.geometry.vec import Vec2


class TestCircle:
    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            Circle(Vec2(0, 0), -1.0)

    def test_contains_inside_boundary_outside(self):
        c = Circle(Vec2(0, 0), 5.0)
        assert c.contains(Vec2(3, 0))
        assert c.contains(Vec2(5, 0))  # boundary included
        assert not c.contains(Vec2(5.1, 0))

    def test_area(self):
        assert Circle(Vec2(0, 0), 2.0).area() == pytest.approx(4 * math.pi)


class TestCircleIntersectionPoints:
    def test_two_points_symmetric(self):
        a = Circle(Vec2(0, 0), 5.0)
        b = Circle(Vec2(6, 0), 5.0)
        points = a.intersection_points(b)
        assert len(points) == 2
        for p in points:
            assert a.center.distance_to(p) == pytest.approx(5.0)
            assert b.center.distance_to(p) == pytest.approx(5.0)
        assert points[0].x == pytest.approx(3.0)
        assert points[1].x == pytest.approx(3.0)
        assert points[0].y == pytest.approx(-points[1].y)

    def test_tangent_single_point(self):
        a = Circle(Vec2(0, 0), 5.0)
        b = Circle(Vec2(10, 0), 5.0)
        points = a.intersection_points(b)
        assert len(points) == 1
        assert points[0].is_close(Vec2(5, 0))

    def test_disjoint_none(self):
        a = Circle(Vec2(0, 0), 1.0)
        assert a.intersection_points(Circle(Vec2(10, 0), 1.0)) == []

    def test_contained_none(self):
        a = Circle(Vec2(0, 0), 10.0)
        assert a.intersection_points(Circle(Vec2(1, 0), 2.0)) == []

    def test_coincident_centers_degenerate(self):
        a = Circle(Vec2(0, 0), 5.0)
        assert a.intersection_points(Circle(Vec2(0, 0), 5.0)) == []

    def test_different_radii(self):
        a = Circle(Vec2(0, 0), 3.0)
        b = Circle(Vec2(4, 0), 2.0)
        points = a.intersection_points(b)
        assert len(points) == 2
        for p in points:
            assert a.center.distance_to(p) == pytest.approx(3.0)
            assert b.center.distance_to(p) == pytest.approx(2.0)


class TestRect:
    def test_square_factory(self):
        r = Rect.square(450.0)
        assert r.width == r.height == 450.0
        assert r.area() == pytest.approx(450.0 * 450.0)

    def test_invalid_extent_rejected(self):
        with pytest.raises(ValueError):
            Rect(10, 0, 0, 10)

    def test_contains_with_tolerance(self):
        r = Rect.square(10.0)
        assert r.contains(Vec2(5, 5))
        assert r.contains(Vec2(10, 10))
        assert not r.contains(Vec2(10.5, 5))
        assert r.contains(Vec2(10.5, 5), tol=1.0)

    def test_clamp(self):
        r = Rect.square(10.0)
        assert r.clamp(Vec2(-3, 15)) == Vec2(0, 10)
        assert r.clamp(Vec2(4, 4)) == Vec2(4, 4)

    def test_center(self):
        assert Rect(0, 0, 10, 20).center() == Vec2(5, 10)

    def test_corners_ccw(self):
        corners = Rect(0, 0, 1, 2).corners()
        assert corners == (Vec2(0, 0), Vec2(1, 0), Vec2(1, 2), Vec2(0, 2))
