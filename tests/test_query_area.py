"""The query area is one disk: ``QuerySpec.area_at`` and ``Circle.contains``.

The oracle is the disk rule written out, ``dx*dx + dy*dy <= (Rq + 1e-9)**2``:
the boundary belongs to the area, and so does a 1e-9 m band outside it.
Points are generated a few ulp either side of ``Rq`` and of ``Rq + 1e-9``,
where a strict comparison or a dropped tolerance would answer differently.
"""

import inspect
import math
import textwrap

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

import repro.geometry.shapes as shapes_module
from repro.core.query import QuerySpec
from repro.geometry.shapes import Circle
from repro.geometry.vec import Vec2


def disk_rule(center: Vec2, radius: float, point: Vec2) -> bool:
    dx = point.x - center.x
    dy = point.y - center.y
    return dx * dx + dy * dy <= (radius + 1e-9) ** 2


def near_boundary(center, radius, band, ulps, direction):
    """A point ``ulps`` steps of ``nextafter`` off ``radius + band``."""
    distance = radius + band
    step = math.inf if ulps > 0 else -math.inf
    for _ in range(abs(ulps)):
        distance = math.nextafter(distance, step)
    ux, uy = direction
    return Vec2(center[0] + distance * ux, center[1] + distance * uy)


DISK_CASES = dict(
    center=st.tuples(st.floats(-1e4, 1e4), st.floats(-1e4, 1e4))
    | st.just((0.0, 0.0)),
    radius=st.floats(1e-3, 1e4),
    band=st.sampled_from([0.0, 1e-9]),
    ulps=st.integers(-4, 4),
    direction=st.sampled_from([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)])
    | st.floats(0.0, 2 * math.pi).map(lambda a: (math.cos(a), math.sin(a))),
)

# On the boundary of the tolerance band exactly (the comparison's equality).
ON_THE_BAND = dict(
    center=(0.0, 0.0), radius=150.0, band=1e-9, ulps=0, direction=(1.0, 0.0)
)
# One ulp outside Rq: inside only because of the tolerance.
JUST_PAST_RQ = dict(
    center=(0.0, 0.0), radius=150.0, band=0.0, ulps=1, direction=(0.0, 1.0)
)


def area_matches_disk_rule(center, radius, band, ulps, direction):
    point = near_boundary(center, radius, band, ulps, direction)
    c = Vec2(*center)
    area = QuerySpec(radius_m=radius).area_at(c)
    assert area.contains(point) == disk_rule(c, radius, point), (c, radius, point)


@settings(max_examples=500, deadline=None)
@given(**DISK_CASES)
@example(**ON_THE_BAND)
@example(**JUST_PAST_RQ)
def test_area_at_contains_matches_the_disk_rule(center, radius, band, ulps, direction):
    area_matches_disk_rule(center, radius, band, ulps, direction)


#: name -> (text of ``Circle.contains`` to replace, replacement)
MUTATIONS = {
    "the boundary excluded": (
        "<= (self.radius + tol) ** 2", "< (self.radius + tol) ** 2",
    ),
    "the tolerance dropped": (
        "(self.radius + tol) ** 2", "self.radius ** 2",
    ),
}


@pytest.mark.parametrize("name", MUTATIONS)
def test_property_fails_under_named_mutations(name, monkeypatch):
    """The property above tells both edges apart: with either mutant in
    ``Circle.contains``'s place the same generator finds a counterexample."""
    old, new = MUTATIONS[name]
    source = textwrap.dedent(inspect.getsource(Circle.contains))
    assert source.count(old) == 1, f"mutation {name!r} no longer applies"
    scope = {}
    exec(source.replace(old, new), vars(shapes_module), scope)
    monkeypatch.setattr(Circle, "contains", scope["contains"])

    @settings(
        max_examples=500, deadline=None, derandomize=True, database=None,
        phases=[Phase.generate],
    )
    @given(**DISK_CASES)
    def mutated(center, radius, band, ulps, direction):
        area_matches_disk_rule(center, radius, band, ulps, direction)

    with pytest.raises(AssertionError):
        mutated()


def test_spec_area_is_the_disk_of_radius_rq():
    area = QuerySpec(radius_m=120.0).area_at(Vec2(10, 10))
    assert area == Circle(Vec2(10, 10), 120.0)
    assert area.contains(Vec2(10, 130))
    assert not area.contains(Vec2(10, 131))


def test_area_at_has_circle_semantics():
    area = QuerySpec(radius_m=100.0).area_at(Vec2(50, 50))
    assert area.contains(Vec2(50, 50))
    assert area.contains(Vec2(150, 50))
    assert not area.contains(Vec2(151, 50))
    assert area.radius == 100.0
