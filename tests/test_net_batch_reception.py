"""Batch-path coverage: BroadcastReception collision matrix, the PSM wake
wheel, carrier-sense consistency across mobile unregistration, and the
event census of the reception pipeline.

The batched reception pipeline and the wake wheel must reproduce the old
per-listener / per-node semantics exactly; these tests pin the tricky
interleavings directly against the channel and scheduler APIs (the pin
ledger, ``tests/test_pins.py``, pins the same property end to end).
"""

import pytest

from repro.geometry.vec import Vec2
from repro.net.channel import Channel
from repro.net.node import MobileEndpoint, SensorNode
from repro.net.packet import BROADCAST, Frame
from repro.net.psm import WakeWheel
from repro.sim.kernel import Simulator
from repro.sim.rng import RandomStreams
from repro.sim.trace import Tracer

from .conftest import line_positions, make_network
from .reception_oracle import OracleRadio


def raw_channel(sim, positions, tracer=None, comm_range=105.0):
    """A bare channel + static nodes (no backbone, no PSM) for direct
    ``transmit`` calls that bypass MAC backoff randomness."""
    channel = Channel(sim, comm_range=comm_range, bitrate_bps=2e6, tracer=tracer)
    streams = RandomStreams(7)
    nodes = []
    for i, pos in enumerate(positions):
        node = SensorNode(i, pos, sim, channel, streams.stream(f"mac-{i}"))
        channel.register_static(node)
        nodes.append(node)
    return channel, nodes


def collect(nodes, kind):
    got = []
    for node in nodes:
        node.register_handler(kind, lambda n, f: got.append((n.node_id, f.payload)))
    return got


class TestCollisionMatrix:
    """The batch arrays must encode exactly the per-listener outcomes."""

    def test_all_corrupt_overlap(self):
        """Two overlapping frames at a common receiver: both corrupt, with
        the old ``overlap`` reason on every reception."""
        sim = Simulator()
        tracer = Tracer(keep=["collision"])
        # 1 and 2 both hear 0 and 3; 0 and 3 are out of each other's range.
        positions = [Vec2(0, 0), Vec2(50, 0), Vec2(100, 0), Vec2(150, 0)]
        channel, nodes = raw_channel(sim, positions, tracer=tracer)
        got = collect(nodes, "data")
        channel.transmit(nodes[0], Frame("data", 0, BROADCAST, 1500, payload="a"))
        channel.transmit(nodes[3], Frame("data", 3, BROADCAST, 1500, payload="b"))
        sim.run(until=1.0)
        # Receivers 1 and 2 heard both frames -> 4 corrupted receptions;
        # receiver 0 heard only frame b and receiver 3 only frame a, but
        # both senders were transmitting (not listening) at onset.
        assert [nid for nid, _ in got] == []
        assert channel.frames_collided == 4
        assert channel.frames_delivered == 0
        reasons = {record["reason"] for record in tracer.records("collision")}
        assert reasons == {"overlap"}

    def test_partial_corrupt_hidden_terminal(self):
        """A receiver in range of both senders corrupts; one in range of a
        single sender delivers cleanly — within the same frame cohort."""
        sim = Simulator()
        # left(-50) hears only sender A(0); mid(100) hears A and B(200).
        positions = [Vec2(0, 0), Vec2(200, 0), Vec2(100, 0), Vec2(-50, 0)]
        channel, nodes = raw_channel(sim, positions)
        got = collect(nodes, "data")
        channel.transmit(nodes[0], Frame("data", 0, BROADCAST, 1500, payload="a"))
        channel.transmit(nodes[1], Frame("data", 1, BROADCAST, 1500, payload="b"))
        sim.run(until=1.0)
        assert got == [(3, "a")]  # only the far listener's copy survives
        assert channel.frames_delivered == 1
        assert channel.frames_collided == 2  # both copies at the middle node

    def test_receiver_left_listening_mid_airtime(self):
        """Sleeping mid-reception corrupts with the old reason string."""
        sim = Simulator()
        tracer = Tracer(keep=["collision"])
        channel, nodes = raw_channel(
            sim, [Vec2(0, 0), Vec2(50, 0)], tracer=tracer
        )
        got = collect(nodes, "data")
        channel.transmit(nodes[0], Frame("data", 0, BROADCAST, 1500))
        airtime = channel.airtime(Frame("data", 0, BROADCAST, 1500))
        sim.schedule(airtime / 2, nodes[1].radio.sleep)
        sim.run(until=1.0)
        assert got == []
        assert channel.frames_collided == 1
        (record,) = tracer.records("collision")
        assert record["reason"] == "receiver_left_listening"

    def test_third_overlapping_frame_still_corrupts(self):
        """Once all in-flight receptions are corrupt, a later frame must
        still corrupt itself against the leftovers (the radio's clean-slot
        pointer is gone by then)."""
        sim = Simulator()
        positions = [Vec2(0, 0), Vec2(50, 0), Vec2(100, 0), Vec2(150, 0)]
        channel, nodes = raw_channel(sim, positions)
        got = collect(nodes, "data")
        short = Frame("data", 0, BROADCAST, 1000)
        channel.transmit(nodes[0], short)
        channel.transmit(nodes[3], Frame("data", 3, BROADCAST, 3000))
        # Third frame starts after the sender's own first frame ended but
        # while node 3's longer (already corrupt) frame is still in flight
        # at nodes 1 and 2 — the radios' clean-slot pointers are long gone.
        sim.schedule(channel.airtime(short) * 1.5, channel.transmit, nodes[0],
                     Frame("data", 0, BROADCAST, 200))
        sim.run(until=1.0)
        assert got == []
        assert channel.frames_delivered == 0
        assert channel.frames_collided == 6  # three frames x nodes 1 and 2

    def test_batch_outcomes_match_object_api_oracle(self):
        """The object-per-reception oracle (old semantics) and the batch
        path agree on the same interleaving at one receiver: begin A, begin
        B (overlap), then a clean C after both end."""
        oracle = OracleRadio()
        a = oracle.begin_reception()
        b = oracle.begin_reception()
        oracle.end_reception(a)
        oracle.end_reception(b)
        c = oracle.begin_reception()
        oracle.end_reception(c)
        assert a.outcome == b.outcome == (True, "overlap")
        assert c.outcome == (False, None)

        # Same interleaving through the batch path, as node 1 hears it.
        sim = Simulator()
        positions = [Vec2(0, 0), Vec2(50, 0), Vec2(100, 0), Vec2(150, 0)]
        channel, nodes = raw_channel(sim, positions)
        got = collect(nodes, "data")

        def transmit(sender, size, payload):
            channel.transmit(sender, Frame("data", sender.node_id, BROADCAST, size,
                                           payload=payload))
            return channel._active[-1]

        def at_node_1(record):
            i = record.receivers.index(nodes[1])
            return record.corrupt[i], record.reasons[i]

        rec_a = transmit(nodes[0], 1500, "a")
        rec_b = transmit(nodes[3], 1500, "b")
        sim.run(until=0.5)
        assert got == []
        rec_c = transmit(nodes[0], 200, "c")
        sim.run(until=1.0)
        assert [at_node_1(r) for r in (rec_a, rec_b, rec_c)] == [
            a.outcome, b.outcome, c.outcome
        ]
        assert (1, "c") in got and (2, "c") in got
        assert all(n.radio.rx_count == 0 for n in nodes)
        assert not oracle.active


class TestLateJoinerMobileProxy:
    def _proxy(self, sim, channel, node_id, x):
        return MobileEndpoint(
            node_id=node_id,
            sim=sim,
            channel=channel,
            rng=RandomStreams(5).stream(f"proxy-{node_id}"),
            position_fn=lambda t, x=x: Vec2(x, 0.0),
        )

    def test_late_joiner_misses_inflight_frame(self):
        """A proxy registered mid-airtime is not in the frame's cohort (the
        reception set is fixed at transmit start, as before), but hears the
        next frame."""
        sim = Simulator()
        channel, nodes = raw_channel(sim, [Vec2(0, 0)])
        proxy = self._proxy(sim, channel, 1000, 10.0)
        got = []
        proxy.register_handler("data", lambda p, f: got.append(f.payload))
        frame = Frame("data", 0, BROADCAST, 1500, payload="first")
        channel.transmit(nodes[0], frame)
        sim.schedule(channel.airtime(frame) / 2, channel.register_mobile, proxy)
        sim.run(until=0.5)
        assert got == []  # joined too late for the in-flight frame
        channel.transmit(nodes[0], Frame("data", 0, BROADCAST, 200, payload="second"))
        sim.run(until=1.0)
        assert got == ["second"]

    def test_unregister_mid_airtime_keeps_carrier_sense_consistent(self):
        """The bugfix: cancelling a session while its proxy's frame is on
        the air must leave busy bookkeeping consistent — including for a
        new proxy that immediately reuses the node id."""
        sim = Simulator()
        channel, nodes = raw_channel(sim, [Vec2(0, 0)])
        proxy = self._proxy(sim, channel, 1000, 10.0)
        channel.register_mobile(proxy)
        channel.transmit(proxy, Frame("data", 1000, BROADCAST, 1500))
        assert channel.medium_busy(nodes[0])
        channel.unregister_mobile(1000)
        fresh = self._proxy(sim, channel, 1000, 12.0)
        channel.register_mobile(fresh)
        # The departed proxy's frame is still in flight: the id-reusing
        # newcomer must sense it (it used to read idle — sender exclusion
        # matched on the bare id).
        assert channel.medium_busy(fresh)
        assert channel.busy_until(fresh) is not None
        sim.run(until=1.0)
        # End-of-airtime drained every per-node counter as usual.
        assert not channel.medium_busy(nodes[0])
        assert channel.busy_until(nodes[0]) is None
        assert not channel.medium_busy(fresh)

    def test_unregister_unknown_id_is_noop(self):
        sim = Simulator()
        channel, _nodes = raw_channel(sim, [Vec2(0, 0)])
        channel.unregister_mobile(424242)  # idempotent, no error


class TestWakeWheel:
    def test_one_wheel_per_phase_services_all_sleepers(self, sim):
        network = make_network(
            sim, line_positions(6, 50.0), sleep_period=9.0, psm_offset=4.0
        )
        network.apply_backbone([0])
        sleepers = [n for n in network.nodes if n.sleep_scheduler is not None]
        wheels = {id(n.sleep_scheduler.wheel) for n in sleepers}
        assert len(wheels) == 1
        wheel = sleepers[0].sleep_scheduler.wheel
        assert wheel.schedulers == tuple(n.sleep_scheduler for n in sleepers)

    @pytest.mark.parametrize("n_sleepers", [3, 10])
    def test_window_boundary_costs_two_events_regardless_of_cohort(
        self, n_sleepers
    ):
        """Per-phase coalescing: one start + one end kernel event per
        beacon window, independent of how many sleepers share the phase."""
        sim = Simulator()
        network = make_network(
            sim,
            line_positions(n_sleepers + 1, 50.0),
            sleep_period=9.0,
            psm_offset=4.0,
        )
        network.apply_backbone([0])
        sim.run(until=3.9)
        before = sim.events_executed
        sim.run(until=4.5)  # spans the window [4.0, 4.1)
        assert sim.events_executed - before == 2
        assert all(n.radio.is_sleeping for n in network.sleeper_nodes)

    def test_override_costs_two_events_and_never_chains(self, sim):
        network = make_network(
            sim, line_positions(3, 50.0), sleep_period=9.0, psm_offset=4.0
        )
        network.apply_backbone([0])
        sim.run(until=4.5)
        baseline = sim.events_executed
        network.nodes[1].sleep_scheduler.add_wake_interval(6.0, 6.5)
        sim.run(until=6.1)
        assert not network.nodes[1].radio.is_sleeping
        assert network.nodes[2].radio.is_sleeping  # only the override's node
        sim.run(until=8.9)  # past the override, before the next window
        # Exactly two events: the override start and its end check — the
        # old per-node chains added a permanent extra boundary event per
        # override (O(overrides^2) growth over a session).
        assert sim.events_executed - baseline == 2
        assert network.nodes[1].radio.is_sleeping

    def test_cancelled_session_leaves_wheel_cohort_intact(self):
        """Coalesced wakes service exactly the schedulers that remain
        registered after a session cancel tears down its gateway and
        proxy: the network's sleepers all keep duty-cycling on the shared
        wheel."""
        from repro.api import MobiQueryService, QueryRequest
        from repro.api.config import MODE_JIT, ExperimentConfig

        config = ExperimentConfig(mode=MODE_JIT, seed=3, duration_s=40.0)
        service = MobiQueryService(config)
        first = service.submit(QueryRequest(user_id=0))
        second = service.submit(QueryRequest(user_id=1))
        sleepers = [
            n for n in service.network.nodes if n.sleep_scheduler is not None
        ]
        assert sleepers, "scenario must have duty-cycled nodes"
        wheel = sleepers[0].sleep_scheduler.wheel
        cohort_before = wheel.schedulers
        service.run_until(5.0)
        second.cancel()
        assert wheel.schedulers == cohort_before
        # Advance to the inside of the next beacon window: every sleeper
        # still registered must be woken by the shared boundary event.
        psm = service.network.config.psm
        window_start = psm.next_window_start(service.sim.now)
        service.run_until(window_start + psm.active_window_s / 2)
        assert all(not n.radio.is_sleeping for n in sleepers)
        service.run_until(window_start + psm.active_window_s + 0.05)
        assert all(n.radio.is_sleeping for n in sleepers)

    def test_shared_registry_coalesces_independent_constructions(self):
        """SleepSchedulers built directly (no network builder) on the same
        kernel and phase share one wheel via the per-kernel registry."""
        from repro.net.psm import PsmConfig, SleepScheduler

        sim = Simulator()
        network = make_network(sim, line_positions(3, 50.0), psm_offset=4.0)
        cfg = PsmConfig(beacon_interval_s=9.0, active_window_s=0.1, offset_s=4.0)
        s1 = SleepScheduler(sim, network.nodes[1].radio, network.nodes[1].mac, cfg)
        s2 = SleepScheduler(sim, network.nodes[2].radio, network.nodes[2].mac, cfg)
        assert s1.wheel is s2.wheel
        assert s1.wheel is WakeWheel.shared(sim, cfg)
        other_phase = PsmConfig(
            beacon_interval_s=9.0, active_window_s=0.1, offset_s=2.0
        )
        assert WakeWheel.shared(sim, other_phase) is not s1.wheel


# ----------------------------------------------------------------------
# Event census: one end-of-airtime event per frame
# ----------------------------------------------------------------------
def _census_run(n_nodes: int, frames: int):
    """Drive ``frames`` broadcasts through one MAC on an ``n_nodes`` clique
    and count end-of-airtime events as they are scheduled."""
    sim = Simulator()
    channel = Channel(sim, comm_range=105.0, bitrate_bps=2e6)
    streams = RandomStreams(11)
    nodes = []
    for i in range(n_nodes):
        # 2 m spacing: every node hears every frame (maximal cohort).
        node = SensorNode(i, Vec2(2.0 * i, 0.0), sim, channel,
                         streams.stream(f"mac-{i}"))
        channel.register_static(node)
        nodes.append(node)
    finish_events = 0
    original = sim.schedule_fast

    def counting_schedule_fast(delay, fn, *args):
        nonlocal finish_events
        if getattr(fn, "__name__", "") == "_finish_transmission":
            finish_events += 1
        original(delay, fn, *args)

    sim.schedule_fast = counting_schedule_fast  # type: ignore[method-assign]
    for _ in range(frames):
        nodes[0].send(Frame("census", 0, BROADCAST, 200))
    sim.run(until=30.0)
    assert channel.frames_sent == frames
    assert channel.frames_delivered == frames * (n_nodes - 1)
    assert channel.reader_receptions == frames * (n_nodes - 1)  # all read
    before = channel.frames_delivered
    # then unicast exchanges: data to 1 and its ACK to 0 are read once each,
    # and every other node of the clique is a bystander of both
    for _ in range(frames):
        nodes[0].send(Frame("census", 0, 1, 200))
    sim.run(until=60.0)
    assert channel.frames_sent == 3 * frames
    assert channel.frames_delivered - before == 2 * frames * (n_nodes - 1)
    assert channel.reader_receptions == frames * (n_nodes - 1) + 2 * frames
    return finish_events, sim.events_executed


def test_reception_events_scale_with_frames_not_listeners():
    """The batching contract: ONE end-of-airtime kernel event per frame,
    and total kernel events independent of the listener-cohort size.

    Before the batch pipeline a frame's receiver-side work was at least
    proportional to listeners in allocated objects; this census pins the
    event-count side: a 20-listener clique costs exactly the same kernel
    events as a 6-listener one for the same frame sequence.
    """
    frames = 40
    finish_small, events_small = _census_run(6, frames)
    finish_large, events_large = _census_run(20, frames)
    assert finish_small == 3 * frames  # O(frames), not O(frames x listeners)
    assert finish_large == 3 * frames
    assert events_small == events_large
    # Per broadcast frame: one MAC attempt + one end-of-airtime batch
    # event (the MAC completion rides the latter); per unicast exchange at
    # most three more (the ACK's attempt and airtime end, the ACK timer).
    # Everything beyond that would be per-listener leakage.
    assert events_small <= 2 * frames + 4 * frames


def test_reader_receptions_match_the_oracle_on_a_fixed_field():
    """On the delivery oracle's line field: receptions begun at readers are
    the oracle's, while bystanders hear far more than that."""
    from .test_net_delivery import LINE, LINE_PROXY, drive

    script = [("unicast", 0, 1), ("wait", 0.02, None), ("ack", 1, 0),
              ("wait", 0.02, None), ("broadcast", 2, 64), ("wait", 0.02, None),
              ("unicast", 3, 2), ("wait", 0.02, None)]
    world = drive(LINE, LINE_PROXY, False, script)
    # data at 1, ACK at 0, the broadcast at 0, 1, 3 and the proxy, then 2
    assert world.channel.reader_receptions == world.readers == 1 + 1 + 4 + 1
    assert world.channel.frames_delivered == 3 + 3 + 4 + 1
