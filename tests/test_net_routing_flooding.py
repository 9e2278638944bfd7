"""Tests for geographic routing (area anycast) and scoped flooding."""

import pytest

from repro.geometry.shapes import Circle
from repro.geometry.vec import Vec2
from repro.net.flooding import FloodManager
from repro.net import routing
from repro.net.routing import GeoRouter

from .conftest import all_active, line_positions, make_network


class TestGeoRouting:
    def test_delivers_at_node_within_radius(self, sim):
        network = make_network(sim, line_positions(6, 80.0))
        all_active(network)
        router = GeoRouter(network)
        got = []
        for node in network.nodes:
            node.register_handler("payload", lambda n, f: got.append((n.node_id, f.payload)))
        router.send(
            origin=network.nodes[0],
            dest=Vec2(400, 0),
            deliver_radius=30.0,
            inner_kind="payload",
            inner_payload="msg",
            inner_size=60,
        )
        sim.run(until=2.0)
        assert got == [(5, "msg")]  # node 5 at x=400, exactly at dest
        assert router.delivered == 1

    def test_immediate_delivery_at_origin(self, sim):
        network = make_network(sim, line_positions(3, 80.0))
        all_active(network)
        router = GeoRouter(network)
        got = []
        for node in network.nodes:
            node.register_handler("payload", lambda n, f: got.append(n.node_id))
        router.send(
            origin=network.nodes[1],
            dest=Vec2(85, 0),
            deliver_radius=30.0,
            inner_kind="payload",
            inner_payload=None,
            inner_size=10,
        )
        sim.run(until=1.0)
        assert got == [1]

    def test_multi_hop_progress(self, sim):
        network = make_network(sim, line_positions(10, 80.0))
        all_active(network)
        router = GeoRouter(network)
        hops_seen = []
        network.nodes[9].register_handler(
            "payload", lambda n, f: hops_seen.append(n.node_id)
        )
        for node in network.nodes[:9]:
            node.register_handler("payload", lambda n, f: hops_seen.append(n.node_id))
        router.send(
            origin=network.nodes[0],
            dest=Vec2(720, 0),
            deliver_radius=10.0,
            inner_kind="payload",
            inner_payload=None,
            inner_size=10,
        )
        sim.run(until=2.0)
        assert hops_seen == [9]

    def test_local_minimum_expanded_delivery(self, sim, tracer):
        """Greedy dead end: deliver at the closest reachable node."""
        network = make_network(sim, line_positions(3, 80.0), tracer=tracer)
        all_active(network)
        router = GeoRouter(network)
        got = []
        for node in network.nodes:
            node.register_handler("payload", lambda n, f: got.append(n.node_id))
        # Destination far beyond the line's end: node 2 is a local minimum.
        router.send(
            origin=network.nodes[0],
            dest=Vec2(1000, 0),
            deliver_radius=20.0,
            inner_kind="payload",
            inner_payload=None,
            inner_size=10,
        )
        sim.run(until=2.0)
        assert got == [2]
        assert tracer.count("anycast-expanded") == 1

    def test_routes_only_over_backbone(self, sim):
        # Backbone nodes at x = 0, 100, 200 (within the 105 m range of each
        # other); sleepers at x = 50, 150 must not be used as relays.
        network = make_network(sim, line_positions(5, 50.0), psm_offset=4.0)
        network.apply_backbone([0, 2, 4])  # 1 and 3 sleep
        router = GeoRouter(network)
        got = []
        for node in network.nodes:
            node.register_handler("payload", lambda n, f: got.append(n.node_id))
        router.send(
            origin=network.nodes[0],
            dest=Vec2(200, 0),
            deliver_radius=10.0,
            inner_kind="payload",
            inner_payload=None,
            inner_size=10,
        )
        sim.run(until=2.0)
        assert got == [4]

    def test_hop_limit_drops(self, sim, tracer, monkeypatch):
        monkeypatch.setattr(routing, "MAX_HOPS", 3)
        network = make_network(sim, line_positions(10, 80.0), tracer=tracer)
        all_active(network)
        router = GeoRouter(network)
        got = []
        for node in network.nodes:
            node.register_handler("payload", lambda n, f: got.append(n.node_id))
        router.send(
            origin=network.nodes[0],
            dest=Vec2(720, 0),
            deliver_radius=10.0,
            inner_kind="payload",
            inner_payload=None,
            inner_size=10,
        )
        sim.run(until=2.0)
        assert got == []
        assert router.dropped == 1


class TestFlooding:
    def test_flood_covers_area(self, sim):
        network = make_network(sim, line_positions(8, 60.0))
        all_active(network)
        flood = FloodManager(network)
        got = []
        for node in network.nodes:
            node.register_handler("inner", lambda n, f: got.append(n.node_id))
        flood.start_flood(
            area=Circle(Vec2(120, 0), 150.0),
            inner_kind="inner",
            inner_payload=None,
            inner_size=20,
            origin=network.nodes[2],
        )
        sim.run(until=2.0)
        # nodes with |x - 120| <= 150: x in [0, 270] -> ids 0..4
        assert sorted(got) == [0, 1, 2, 3, 4]

    def test_nodes_outside_area_do_not_deliver(self, sim):
        network = make_network(sim, line_positions(8, 60.0))
        all_active(network)
        flood = FloodManager(network)
        got = []
        for node in network.nodes:
            node.register_handler("inner", lambda n, f: got.append(n.node_id))
        flood.start_flood(
            area=Circle(Vec2(0, 0), 70.0),
            inner_kind="inner",
            inner_payload=None,
            inner_size=20,
            origin=network.nodes[0],
        )
        sim.run(until=2.0)
        assert sorted(got) == [0, 1]

    def test_each_node_delivers_once(self, sim):
        network = make_network(sim, line_positions(5, 60.0))
        all_active(network)
        flood = FloodManager(network)
        got = []
        for node in network.nodes:
            node.register_handler("inner", lambda n, f: got.append(n.node_id))
        flood.start_flood(
            area=Circle(Vec2(120, 0), 500.0),
            inner_kind="inner",
            inner_payload=None,
            inner_size=20,
            origin=network.nodes[0],
        )
        sim.run(until=2.0)
        assert len(got) == len(set(got)) == 5

    def test_active_only_blocks_sleeper_rebroadcast(self, sim):
        # Line 0(active) 1(sleeper, awake in window at t=0) 2(active far)
        network = make_network(sim, line_positions(3, 100.0), psm_offset=0.0)
        network.apply_backbone([0, 2])
        flood = FloodManager(network)
        got = []
        for node in network.nodes:
            node.register_handler("inner", lambda n, f: got.append(n.node_id))
        # Node 2 is 200 m from node 0: reachable only via node 1's
        # rebroadcast, which a flood forbids (sleepers stay leaves).
        flood.start_flood(
            area=Circle(Vec2(100, 0), 300.0),
            inner_kind="inner",
            inner_payload=None,
            inner_size=20,
            origin=network.nodes[0],
        )
        sim.run(until=0.05)
        assert 1 in got  # sleeper heard and delivered (it was in-window)
        assert 2 not in got  # but did not rebroadcast

    def test_proxy_originated_flood(self, sim):
        from repro.net.node import MobileEndpoint
        from repro.sim.rng import RandomStreams

        network = make_network(sim, line_positions(3, 60.0))
        all_active(network)
        flood = FloodManager(network)
        got = []
        for node in network.nodes:
            node.register_handler("inner", lambda n, f: got.append(n.node_id))
        proxy = MobileEndpoint(
            node_id=999,
            channel=network.channel,
            rng=RandomStreams(5).stream("proxy"),
            position_fn=lambda t: Vec2(0, 0),
        )
        network.channel.register_mobile(proxy)
        envelope = flood.start_flood(
            area=Circle(Vec2(0, 0), 200.0),
            inner_kind="inner",
            inner_payload=None,
            inner_size=20,
        )
        proxy.send(flood.make_frame(proxy.node_id, envelope))
        sim.run(until=2.0)
        assert sorted(got) == [0, 1, 2]
