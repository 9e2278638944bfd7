"""The query area is one disk: ``QuerySpec.area_at`` and ``Circle.contains``.

The oracle is the disk rule written out, ``dx*dx + dy*dy <= (Rq + 1e-9)**2``:
the boundary belongs to the area, and so does a 1e-9 m band outside it.
Points are generated a few ulp either side of ``Rq`` and of ``Rq + 1e-9``,
where a strict comparison or a dropped tolerance would answer differently.
"""

import math

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from repro.core.query import QuerySpec
from repro.geometry.shapes import Circle
from repro.geometry.vec import Vec2

from .mutants import mutate


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
    mutate(monkeypatch, Circle, "contains", *MUTATIONS[name])

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


# ----------------------------------------------------------------------
# The scorer and the NP baseline take the same area the tree does
# ----------------------------------------------------------------------
RQ = 150.0
CENTRE = Vec2(200.0, 200.0)
#: past ``Rq`` by less than the circle's tolerance, beyond the grid's
FRINGE = Vec2(200.0 + RQ + 5e-10, 200.0)


def fringe_network():
    """Node 0 at the area's centre, node 1 on its fringe (``Rq + 5e-10``)."""
    from repro.net.network import NetworkConfig, build_network
    from repro.sim.kernel import Simulator
    from repro.sim.rng import RandomStreams

    assert Circle(CENTRE, RQ).contains(FRINGE)
    return build_network(
        Simulator(), NetworkConfig(n_nodes=2), RandomStreams(1),
        positions=[CENTRE, FRINGE],
    )


def test_scorer_counts_a_fringe_node_the_area_contains():
    from types import SimpleNamespace

    from repro.core.gateway import DeliveryRecord
    from repro.core.metrics import build_session_metrics

    network = fringe_network()
    spec = QuerySpec(radius_m=RQ, period_s=2.0, freshness_s=1.0, lifetime_s=2.0)
    delivery = DeliveryRecord(
        k=1, time=1.9, value=20.0, contributors=frozenset({0, 1}),
        area_center=CENTRE,
    )
    metrics = build_session_metrics(
        SimpleNamespace(best_delivery=lambda k: (delivery, True)),
        network,
        spec,
        SimpleNamespace(position_at=lambda t: CENTRE),
        duration_s=2.0,
    )
    (record,) = metrics.records
    assert record.area_node_count == 2
    assert record.contributors_in_area == 2


def test_np_answers_a_fringe_node_the_area_contains():
    from repro.core.baseline import NoPrefetchProtocol
    from repro.core.messages import NpQueryMessage
    from repro.net.flooding import FloodManager
    from repro.net.routing import GeoRouter

    network = fringe_network()
    protocol = NoPrefetchProtocol(
        network, GeoRouter(network), FloodManager(network)
    )
    answered = []
    protocol._respond = lambda node, msg: answered.append(node.node_id)
    protocol.register_session((0, 1))
    msg = NpQueryMessage(
        query_id=1, k=1, deadline=4.0, freshness_s=1.0, proxy_id=99,
        issue_position=CENTRE, radius_m=RQ,
    )
    protocol._handle_query(network.nodes[1], msg)
    network.sim.run(until=4.0)
    assert answered == [1]
