"""Integration tests for the channel + MAC stack on tiny topologies."""

import pytest

from repro.geometry.vec import Vec2
from repro.net.packet import BROADCAST, Frame
from repro.sim.kernel import Simulator

from .conftest import all_active, line_positions, make_network


def collect_frames(network, kind):
    """Register a collecting handler for ``kind`` on every node."""
    received = []
    for node in network.nodes:
        node.register_handler(
            kind, lambda n, f: received.append((n.node_id, f.payload))
        )
    return received


class TestChannelBasics:
    def test_airtime_scales_with_size(self, sim):
        network = make_network(sim, line_positions(2, 50.0))
        small = Frame("x", 0, 1, size_bytes=10)
        big = Frame("x", 0, 1, size_bytes=1000)
        assert network.channel.airtime(big) > network.channel.airtime(small)

    def test_airtime_value(self, sim):
        network = make_network(sim, line_positions(2, 50.0))
        frame = Frame("x", 0, 1, size_bytes=32)  # + 18 B MAC header
        expected = 192e-6 + (50 * 8) / 2e6
        assert network.channel.airtime(frame) == pytest.approx(expected)

    def test_unicast_delivered_in_range(self, sim):
        network = make_network(sim, line_positions(2, 50.0))
        all_active(network)
        received = collect_frames(network, "hello")
        network.nodes[0].send(Frame("hello", 0, 1, 20, payload="hi"))
        sim.run(until=1.0)
        assert received == [(1, "hi")]

    def test_no_delivery_out_of_range(self, sim):
        network = make_network(sim, line_positions(2, 300.0))
        all_active(network)
        received = collect_frames(network, "hello")
        network.nodes[0].send(Frame("hello", 0, 1, 20))
        sim.run(until=1.0)
        assert received == []

    def test_broadcast_reaches_all_awake_neighbors(self, sim):
        network = make_network(sim, line_positions(4, 50.0))
        all_active(network)
        received = collect_frames(network, "bcast")
        # node 1 at x=50; neighbors within 105 m: nodes 0, 2, 3 (x=0,100,150)
        network.nodes[1].send(Frame("bcast", 1, BROADCAST, 20, payload="b"))
        sim.run(until=1.0)
        assert sorted(nid for nid, _ in received) == [0, 2, 3]

    def test_sleeping_node_misses_broadcast(self, sim):
        network = make_network(sim, line_positions(2, 50.0), sleep_period=9.0, psm_offset=4.0)
        network.apply_backbone([0])  # node 1 sleeps (next window at t=4)
        received = collect_frames(network, "bcast")
        sim.schedule(1.0, network.nodes[0].send, Frame("bcast", 0, BROADCAST, 20))
        sim.run(until=2.0)
        assert received == []

    def test_unicast_to_sleeping_node_fails(self, sim):
        network = make_network(sim, line_positions(2, 50.0), sleep_period=9.0, psm_offset=4.0)
        network.apply_backbone([0])
        outcomes = []
        sim.schedule(
            1.0,
            network.nodes[0].send,
            Frame("x", 0, 1, 20),
            outcomes.append,
        )
        sim.run(until=3.0)
        assert outcomes == [False]
        assert network.nodes[0].mac.unicast_failures == 1


class TestAckAndRetry:
    def test_unicast_success_callback(self, sim):
        network = make_network(sim, line_positions(2, 50.0))
        all_active(network)
        outcomes = []
        network.nodes[0].send(Frame("x", 0, 1, 20), outcomes.append)
        sim.run(until=1.0)
        assert outcomes == [True]

    def test_duplicate_suppression_on_retransmit(self, sim):
        """A frame retransmitted at the MAC level is dispatched once."""
        network = make_network(sim, line_positions(2, 50.0))
        all_active(network)
        received = collect_frames(network, "once")
        frame = Frame("once", 0, 1, 20, payload="p")
        network.nodes[0].send(frame)
        sim.run(until=0.5)
        # Simulate a lost-ACK retransmission of the identical frame.
        network.nodes[0].send(
            Frame("once", 0, 1, 20, payload="p", seq=frame.seq)
        )
        sim.run(until=1.0)
        assert received == [(1, "p")]

    def test_queue_preserves_fifo_order(self, sim):
        network = make_network(sim, line_positions(2, 50.0))
        all_active(network)
        received = collect_frames(network, "seq")
        for i in range(5):
            network.nodes[0].send(Frame("seq", 0, 1, 20, payload=i))
        sim.run(until=2.0)
        assert [p for _, p in received] == [0, 1, 2, 3, 4]


class TestCollisions:
    def test_hidden_terminal_collision(self, sim):
        """Two senders out of each other's range corrupt a middle receiver."""
        # 0 --- 1 --- 2 with 0 and 2 mutually out of range (200 m apart)
        network = make_network(sim, line_positions(3, 100.0), comm_range=105.0)
        all_active(network)
        received = collect_frames(network, "big")
        # Big frames so their airtimes surely overlap when started together.
        sim.schedule(0.5, network.nodes[0].send, Frame("big", 0, BROADCAST, 1500))
        sim.schedule(0.5, network.nodes[2].send, Frame("big", 2, BROADCAST, 1500))
        sim.run(until=1.0)
        middle = [nid for nid, _ in received if nid == 1]
        assert middle == []  # both corrupted at node 1
        assert network.channel.frames_collided >= 2

    def test_carrier_sense_serializes_neighbors(self, sim):
        """In-range senders defer to each other; both frames get through."""
        network = make_network(sim, line_positions(3, 50.0), comm_range=105.0)
        all_active(network)
        received = collect_frames(network, "msg")
        # Nodes 0 and 2 both in range of node 1 AND of each other (100 m).
        sim.schedule(0.5, network.nodes[0].send, Frame("msg", 0, BROADCAST, 400))
        sim.schedule(0.5005, network.nodes[2].send, Frame("msg", 2, BROADCAST, 400))
        sim.run(until=1.0)
        at_middle = [nid for nid, _ in received if nid == 1]
        assert len(at_middle) == 2

    def test_medium_busy_during_transmission(self, sim):
        network = make_network(sim, line_positions(2, 50.0))
        all_active(network)
        node0, node1 = network.nodes
        states = []

        def probe():
            states.append(network.channel.medium_busy(node1))

        node0.send(Frame("x", 0, BROADCAST, 1500))
        # MAC backoff defers the actual transmit; sample while on air.
        sim.schedule(0.004, probe)
        sim.run(until=1.0)
        assert states == [True]


class TestMobileEndpoint:
    def test_moving_endpoint_receives_when_in_range(self, sim):
        from repro.net.node import MobileEndpoint
        from repro.sim.rng import RandomStreams

        network = make_network(sim, line_positions(1, 0.0))
        all_active(network)
        # Proxy walks along x: at t=1 it is at (10, 0), within range of node 0.
        proxy = MobileEndpoint(
            node_id=999,
            channel=network.channel,
            rng=RandomStreams(5).stream("proxy"),
            position_fn=lambda t: Vec2(10.0 * t, 0.0),
        )
        network.channel.register_mobile(proxy)
        got = []
        proxy.register_handler("ping", lambda p, f: got.append(f.payload))
        sim.schedule(1.0, network.nodes[0].send, Frame("ping", 0, 999, 20, payload="yo"))
        sim.run(until=2.0)
        assert got == ["yo"]

    def test_moving_endpoint_out_of_range_misses(self, sim):
        from repro.net.node import MobileEndpoint
        from repro.sim.rng import RandomStreams

        network = make_network(sim, line_positions(1, 0.0))
        all_active(network)
        proxy = MobileEndpoint(
            node_id=999,
            channel=network.channel,
            rng=RandomStreams(5).stream("proxy"),
            position_fn=lambda t: Vec2(500.0, 0.0),
        )
        network.channel.register_mobile(proxy)
        got = []
        proxy.register_handler("ping", lambda p, f: got.append(f.payload))
        outcomes = []
        sim.schedule(1.0, network.nodes[0].send, Frame("ping", 0, 999, 20), outcomes.append)
        sim.run(until=3.0)
        assert got == []
        assert outcomes == [False]


    def test_forwards_the_paths_motion_pieces(self, sim):
        """Given ``segment_fn`` the proxy offers ``segment_at`` and the
        channel hears it without ever asking ``position_at``; without, the
        attribute is absent (the channel's cue to ask for positions)."""
        from repro.mobility.path import PiecewisePath
        from repro.net.node import MobileEndpoint
        from repro.sim.rng import RandomStreams

        network = make_network(sim, line_positions(1, 0.0))
        all_active(network)
        path = PiecewisePath.from_velocity(Vec2(0.0, 0.0), Vec2(10.0, 0.0), 0.0, 5.0)
        asked = []

        def position_fn(t):
            asked.append(t)
            return path.position_at(t)

        proxy = MobileEndpoint(
            node_id=999,
            channel=network.channel,
            rng=RandomStreams(5).stream("proxy"),
            position_fn=position_fn,
            segment_fn=path.segment_at,
        )
        assert proxy.segment_at(1.0) == path.segment_at(1.0)
        assert not hasattr(
            MobileEndpoint(998, network.channel, proxy.rng, position_fn), "segment_at"
        )
        network.channel.register_mobile(proxy)
        got = []
        proxy.register_handler("ping", lambda p, f: got.append(f.payload))
        # a broadcast: the proxy only listens (its own frames, like the ACK
        # of a unicast, are sent from ``position_at``)
        sim.schedule(1.0, network.nodes[0].send, Frame("ping", 0, BROADCAST, 20, payload="yo"))
        sim.run(until=2.0)
        assert got == ["yo"]
        assert asked == []


class TestCarrierSenseBookkeeping:
    """The per-node busy counters must answer carrier sense exactly as the
    original scan over all in-flight transmissions did."""

    def test_busy_only_for_nodes_in_range_of_sender(self, sim):
        # 0 -- 50m -- 1 -- 50m -- 2 -- 200m -- 3 : node 3 is out of range.
        positions = [Vec2(0, 0), Vec2(50, 0), Vec2(100, 0), Vec2(300, 0)]
        network = make_network(sim, positions)
        all_active(network)
        nodes = network.nodes
        observed = {}

        def probe():
            observed.update(
                {n.node_id: network.channel.medium_busy(n) for n in nodes}
            )

        nodes[0].send(Frame("x", 0, BROADCAST, 1500))
        sim.schedule(0.004, probe)  # sampled mid-airtime (after backoff)
        sim.run(until=1.0)
        assert observed[1] is True
        assert observed[2] is True
        assert observed[3] is False
        # The sender's own transmission does not count for itself.
        assert observed[0] is False

    def test_busy_until_matches_transmission_end(self, sim):
        network = make_network(sim, line_positions(2, 50.0))
        all_active(network)
        node0, node1 = network.nodes
        samples = []

        def probe():
            samples.append((sim.now, network.channel.busy_until(node1)))

        node0.send(Frame("x", 0, BROADCAST, 1500))
        sim.schedule(0.004, probe)
        sim.run(until=1.0)
        (at, until), = samples
        assert until is not None and until > at
        # After the air clears the medium reads idle again with no residue.
        assert network.channel.busy_until(node1) is None
        assert network.channel.medium_busy(node1) is False

    def test_sleeping_radio_reads_idle(self, sim):
        network = make_network(sim, line_positions(2, 50.0))
        all_active(network)
        node0, node1 = network.nodes
        states = []

        def probe():
            node1.radio.sleep()
            states.append(network.channel.medium_busy(node1))

        node0.send(Frame("x", 0, BROADCAST, 1500))
        sim.schedule(0.004, probe)
        sim.run(until=1.0)
        assert states == [False]

    def test_mobile_endpoint_senses_via_active_scan(self, sim):
        from repro.net.node import MobileEndpoint
        from repro.sim.rng import RandomStreams

        network = make_network(sim, line_positions(1, 0.0))
        all_active(network)
        proxy = MobileEndpoint(
            node_id=999,
            channel=network.channel,
            rng=RandomStreams(5).stream("proxy"),
            position_fn=lambda t: Vec2(10.0, 0.0),
        )
        network.channel.register_mobile(proxy)
        states = []

        def probe():
            states.append(network.channel.medium_busy(proxy))
            states.append(network.channel.busy_until(proxy) is not None)

        network.nodes[0].send(Frame("x", 0, BROADCAST, 1500))
        sim.schedule(0.004, probe)
        sim.run(until=1.0)
        assert states == [True, True]


class TestStaticListenerCache:
    def test_cache_matches_fresh_grid_query(self, sim):
        positions = [Vec2(0, 0), Vec2(50, 0), Vec2(100, 0), Vec2(300, 0)]
        network = make_network(sim, positions)
        channel = network.channel
        for node in network.nodes:
            cached = channel.static_listeners(node.node_id)
            fresh = [
                ep
                for ep in channel.listeners_near(node.position, 0.0)
                if ep.node_id != node.node_id
            ]
            assert list(cached) == fresh
        # Second call returns the identical tuple (cached, not rebuilt).
        assert channel.static_listeners(0) is channel.static_listeners(0)

    def test_late_registration_invalidates_cache(self, sim):
        network = make_network(sim, line_positions(2, 50.0))
        channel = network.channel
        before = channel.static_listeners(0)
        assert [ep.node_id for ep in before] == [1]
        # Register one more static endpoint in range (plain stub endpoint).
        from repro.net.node import SensorNode
        from repro.sim.rng import RandomStreams

        extra = SensorNode(
            node_id=77,
            position=Vec2(20.0, 0.0),
            channel=channel,
            rng=RandomStreams(9).stream("mac-77"),
        )
        channel.register_static(extra)
        after = channel.static_listeners(0)
        assert sorted(ep.node_id for ep in after) == [1, 77]

    def test_node_registered_mid_flight_senses_busy(self, sim):
        """A static endpoint registered while a covering transmission is on
        the air must read busy immediately (counters seeded from _active)."""
        from repro.net.node import SensorNode
        from repro.sim.rng import RandomStreams

        network = make_network(sim, line_positions(2, 50.0))
        all_active(network)
        channel = network.channel
        states = []

        def register_and_probe():
            late = SensorNode(
                node_id=88,
                position=Vec2(25.0, 0.0),
                channel=channel,
                rng=RandomStreams(3).stream("mac-88"),
            )
            channel.register_static(late)
            states.append(channel.medium_busy(late))
            states.append(channel.busy_until(late) is not None)

        network.nodes[0].send(Frame("x", 0, BROADCAST, 1500))
        sim.schedule(0.004, register_and_probe)  # mid-airtime
        sim.run(until=1.0)
        # After the air clears the seeded counter must have drained too.
        assert not channel.medium_busy(channel.endpoint(88))
        assert states == [True, True]
