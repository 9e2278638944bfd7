"""The channel addresses the frame: who is called, who is counted.

Every listener in range of a frame pays for it at the radio — RX time and
energy, an ``rx`` or ``collision`` outcome, corruption of whatever else it
was hearing — but only the addressee of a unicast frame (and every clean
receiver of a broadcast) is handed the frame through ``deliver_frame``, and
only those readers get a reception begun and a trace record: a unicast
frame's bystanders are counted, not received.  Each interleaving below runs
through the real channel, over endpoints that record their ``deliver_frame``
calls, and through the object-per-reception oracle
(``tests/reception_oracle.py``) driving one real ``EnergyMeter`` per
endpoint; counters, tick counts, readers' trace records, receptions begun
at readers, ``rx_count`` and state after every step, and every meter where
the script reads it, must agree with the oracle, and the calls must be the
oracle's clean receptions the frame is addressed to.
"""

import math

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st


from repro.geometry.vec import Vec2
from repro.net.channel import Channel
from repro.net.energy import EnergyMeter, RadioState
from repro.net.packet import ACK_SIZE_BYTES, BROADCAST, Frame
from repro.sim.kernel import Simulator
from repro.sim.trace import Tracer

from .conftest import make_network
from .mutants import mutate
from .reception_oracle import OracleRadio
from .test_net_carrier_sense import FRINGE_FIELD, OFFSETS, RC
from .test_net_mobile_index import Endpoint

LISTENING = (RadioState.IDLE, RadioState.RX)


def rx_seconds(radio, elapsed_s):
    """Seconds a radio that has only idled and received since t = 0 spent
    receiving, read off its mean draw over ``elapsed_s``."""
    model = radio.energy.model
    surplus_w = radio.energy.average_power_w() - model.idle_w
    return surplus_w * elapsed_s / (model.rx_w - model.idle_w)
READOUT = ("joules", "tx_s", "rx_s", "idle_s", "sleep_s")


class Recorder(Endpoint):
    """An endpoint that logs what the channel hands it."""

    def __init__(self, sim, node_id, x, y, calls):
        position = Vec2(x, y)
        super().__init__(sim, node_id, lambda time: position)
        self.calls = calls

    def deliver_frame(self, frame):
        self.calls.append((self.node_id, frame.seq))


class World:
    """One field under the real channel and under the oracle, side by side."""

    def __init__(self, statics, mobiles, watch):
        self.sim = Simulator()
        # ticks when nothing is kept, emitted records when ``watch``
        self.tracer = Tracer(keep=["rx", "collision"] if watch else None)
        self.watch = watch
        self.channel = Channel(
            self.sim, comm_range=105.0, bitrate_bps=2e6, tracer=self.tracer
        )
        self.calls = []
        self.endpoints = []
        for x, y in statics:
            self._add(x, y, self.channel.register_static)
        for x, y in mobiles:
            self._add(x, y, self.channel.register_mobile)
        self.oracle = {ep: OracleRadio() for ep in self.endpoints}
        self.meters = {
            ep: EnergyMeter(self.sim, ep.radio.energy.model) for ep in self.endpoints
        }
        self.rx = []  # (frame seq, kind, receiver id), in resolution order
        self.collisions = []  # (frame seq, kind, receiver id, reason)
        # the outcomes at readers — the addressee of a unicast frame, every
        # listener of a broadcast — which alone leave trace records
        self.read_rx = []
        self.read_collisions = []
        self.readers = 0  # receptions begun at readers
        self.sent = []  # frame seqs in transmission order
        self.expected_calls = []
        self.jamming = False

    def jam(self, on):
        """Open or close a fault window that corrupts every frame sent."""
        self.jamming = on
        self.channel.fault_jam = (lambda frame: True) if on else None

    def _add(self, x, y, register):
        self.endpoints.append(Recorder(self.sim, len(self.endpoints), x, y, self.calls))
        register(self.endpoints[-1])

    def _meter(self, endpoint):
        """Bill the oracle radio's state to the endpoint's reference meter."""
        state = self.oracle[endpoint].state
        if state is not self.meters[endpoint]._state:
            self.meters[endpoint].on_state_change(state, self.sim.now)

    def set_state(self, endpoint, state):
        endpoint.radio.set_state(state)
        self.oracle[endpoint].set_state(state)
        self._meter(endpoint)

    def can_transmit(self, sender):
        return sender.radio.state in LISTENING

    def transmit(self, sender, dst, size, kind="data"):
        now = self.sim.now
        frame = Frame(kind, sender.node_id, dst, size)
        self.sent.append(frame.seq)
        self.oracle[sender].set_state(RadioState.TX)
        self._meter(sender)
        cohort = []
        for listener in self.channel.listeners_near(sender.position_at(now), now):
            if listener is not sender and self.oracle[listener].state in LISTENING:
                cohort.append((listener, self.oracle[listener].begin_reception()))
                self._meter(listener)
                self.readers += frame.is_broadcast or frame.dst == listener.node_id
        if self.jamming:
            for _, reception in cohort:
                reception.corrupt("fault-degraded")
        self.channel.transmit(sender, frame, lambda: self._finish(sender, frame, cohort))
        return frame

    def _finish(self, sender, frame, cohort):
        if self.oracle[sender].state is RadioState.TX:
            self.oracle[sender].set_state(RadioState.IDLE)
            self._meter(sender)
        for listener, reception in cohort:
            self.oracle[listener].end_reception(reception)
            self._meter(listener)
            at = listener.node_id
            reader = frame.is_broadcast or frame.dst == at
            if reception.corrupted:
                outcome = (frame.seq, frame.kind, at, reception.reason)
                self.collisions.append(outcome)
                if reader:
                    self.read_collisions.append(outcome)
                continue
            self.rx.append((frame.seq, frame.kind, at))
            if reader:
                self.read_rx.append((frame.seq, frame.kind, at))
                self.expected_calls.append((at, frame.seq))

    def check_energy(self):
        """Read every meter (as the power report does) and compare them.

        A bystander's RX seconds are summed apart from the IDLE interval
        they fell in and moved at the read, so the totals agree to float
        rounding: 1e-12 relative (1e-15 absolute for the seconds of a
        state a radio has hardly been in).
        """
        for endpoint in self.endpoints:
            meter, reference = endpoint.radio.energy, self.meters[endpoint]
            got, want = meter.readout(), reference.readout()
            for name, a, b in zip(READOUT, got, want):
                assert math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15), (
                    f"endpoint {endpoint.node_id}: {name} {a!r} != {b!r}"
                )
            assert math.isclose(
                meter.average_power_w(), reference.average_power_w(), rel_tol=1e-12
            )

    def check(self):
        channel, tracer = self.channel, self.tracer
        assert self.calls == self.expected_calls
        assert channel.frames_delivered == tracer.count("rx") == len(self.rx)
        assert channel.frames_collided == tracer.count("collision") == len(self.collisions)
        assert channel.reader_receptions == self.readers
        if self.watch:
            assert [
                (r["frame"], r["frame_kind"], r["at"]) for r in tracer.records("rx")
            ] == self.read_rx
            assert [
                (r["frame"], r["frame_kind"], r["at"], r["reason"])
                for r in tracer.records("collision")
            ] == self.read_collisions
        else:
            assert tracer.records() == []
        for endpoint in self.endpoints:
            radio, oracle = endpoint.radio, self.oracle[endpoint]
            who = f"endpoint {endpoint.node_id} at t={self.sim.now!r}"
            assert radio.rx_count == len(oracle.active), who
            assert radio.state is oracle.state, who


# sender 0 and addressee 1; 2 hears both; 3 hears 0 and will doze off; 4 hears
# 0 and the hidden sender 5, which nobody else hears; 6 is a proxy beside 1
STATICS = [(0.0, 0.0), (50.0, 0.0), (25.0, 40.0), (0.0, 80.0), (-90.0, 0.0), (-180.0, 0.0)]
MOBILES = [(60.0, 10.0)]


@pytest.mark.parametrize("watch", [False, True], ids=["ticks", "records"])
class TestWhoIsCalled:
    def test_unicast_and_its_ack_reach_the_addressee_only(self, watch):
        world = World(STATICS, MOBILES, watch)
        sender, addressee, _, dozer, overlapped, hidden, _ = world.endpoints
        data = world.transmit(sender, addressee.node_id, 1000)
        world.sim.run(until=1e-3)
        noise = world.transmit(hidden, BROADCAST, 64)  # overlaps the data frame at 4
        world.sim.run(until=2e-3)
        world.set_state(dozer, RadioState.SLEEP)  # mid-reception
        world.sim.run(until=0.01)
        ack = world.transmit(addressee, sender.node_id, ACK_SIZE_BYTES, kind="mac-ack")
        world.sim.run(until=0.02)
        world.check()
        world.check_energy()
        assert world.calls == [(addressee.node_id, data.seq), (sender.node_id, ack.seq)]
        # the bystanders paid for both frames at the radio all the same ...
        assert (data.seq, "data", 2) in world.rx and (ack.seq, "mac-ack", 2) in world.rx
        assert (data.seq, "data", 6) in world.rx and (ack.seq, "mac-ack", 6) in world.rx
        assert rx_seconds(world.endpoints[2].radio, 0.02) > 0.004
        # ... and the ones that dozed off or were overlapped still corrupted
        assert world.collisions == [
            (noise.seq, "data", 4, "overlap"),
            (data.seq, "data", 4, "overlap"),  # grid order: the cell west of 0's first
            (data.seq, "data", 3, "receiver_left_listening"),
        ]

    def test_broadcast_reaches_every_clean_receiver_in_cohort_order(self, watch):
        world = World(STATICS, MOBILES, watch)
        sender, _, _, dozer, overlapped, hidden, _ = world.endpoints
        world.set_state(dozer, RadioState.SLEEP)  # asleep at onset: no reception
        frame = world.transmit(sender, BROADCAST, 1000)
        world.sim.run(until=1e-3)
        world.transmit(hidden, BROADCAST, 64)
        world.sim.run(until=0.02)
        world.check()
        world.check_energy()
        cohort = [
            ep.node_id
            for ep in world.channel.listeners_near(Vec2(0.0, 0.0), 0.0)
            if ep not in (sender, dozer, overlapped)
        ]
        assert cohort == [1, 2, 6]  # static listeners in grid order, then the proxy
        assert world.calls == [(at, frame.seq) for at in cohort]
        assert [c[2:] for c in world.collisions] == [(4, "overlap"), (4, "overlap")]


index = st.integers(min_value=0, max_value=10**6)
ops = st.one_of(
    st.tuples(st.just("unicast"), index, index),
    st.tuples(st.just("unicast"), index, index),
    st.tuples(st.just("ack"), index, index),
    st.tuples(st.just("broadcast"), index, st.sampled_from([64, 1500])),
    st.tuples(st.just("doze"), index, st.none()),
    st.tuples(st.just("wait"), st.sampled_from([0.0, 1e-4, 1e-3, 0.02]), st.none()),
    st.tuples(st.just("jam"), st.none(), st.none()),  # opens or closes a window
    st.tuples(st.just("meter"), st.none(), st.none()),  # the power report reads
)
# a 1 m lattice, and the fringe within a nanometre of a multiple of Rc: of a
# grid-cell edge and of being exactly Rc from a neighbour on the lattice
lattice = st.integers(min_value=0, max_value=250).map(float)
fringe = st.builds(
    lambda cell, offset: cell * RC + offset,
    st.integers(min_value=0, max_value=2),
    st.sampled_from(OFFSETS),
)
coords = st.one_of(lattice, fringe)
WORLDS = dict(
    statics=st.lists(st.tuples(coords, coords), min_size=2, max_size=7),
    mobiles=st.lists(st.tuples(coords, coords), max_size=3),
    watch=st.booleans(),
    script=st.lists(ops, min_size=5, max_size=30),
)


def drive(statics, mobiles, watch, script):
    """Play ``script`` on one field through the channel and the oracle,
    checking after every step, reading the meters where it says so and
    once all frames are off the air."""
    world = World(statics, mobiles, watch)
    endpoints = world.endpoints
    for kind, a, b in script:
        if kind == "wait":
            world.sim.run(until=world.sim.now + a)
        elif kind == "jam":
            world.jam(not world.jamming)
        elif kind == "meter":
            world.check_energy()
        elif kind == "doze":
            endpoint = endpoints[a % len(endpoints)]
            asleep = endpoint.radio.is_sleeping
            world.set_state(endpoint, RadioState.IDLE if asleep else RadioState.SLEEP)
        elif world.can_transmit(endpoints[a % len(endpoints)]):
            endpoint = endpoints[a % len(endpoints)]
            if kind == "broadcast":
                world.transmit(endpoint, BROADCAST, b)
            else:  # addressed to anyone, itself and out-of-range nodes included
                world.transmit(
                    endpoint,
                    endpoints[b % len(endpoints)].node_id,
                    500 if kind == "unicast" else ACK_SIZE_BYTES,
                    kind="data" if kind == "unicast" else "mac-ack",
                )
        world.check()
    world.sim.run(until=world.sim.now + 1.0)
    world.check()
    world.check_energy()
    assert all(ep.radio.rx_count == 0 for ep in endpoints)
    return world


# 0 unicasts to 1 with 2 and the proxy 4 listening in; 3 hears only 2
LINE = [(0.0, 0.0), (50.0, 0.0), (100.0, 0.0), (200.0, 0.0)]
LINE_PROXY = [(40.0, 30.0)]
#: a bystander starts sending mid-reception, to the addressee of the frame
#: it was hearing
TX_MID_RECEPTION = [
    ("unicast", 0, 1), ("wait", 1e-4, None), ("unicast", 2, 1),
    ("wait", 0.02, None), ("unicast", 0, 1), ("wait", 0.02, None),
]
#: a bystander dozes off mid-reception and wakes while the frame is still
#: on the air, and a frame addressed to it then meets the one it still
#: counts; asleep when the next one begins, it wakes under it and hears a
#: later one clean
WAKE_IN_FLIGHT = [
    ("unicast", 0, 1), ("wait", 1e-4, None), ("doze", 2, None),
    ("doze", 2, None), ("unicast", 3, 2), ("wait", 0.02, None),
    ("doze", 2, None), ("unicast", 0, 1), ("wait", 1e-4, None), ("doze", 2, None),
    ("wait", 0.02, None), ("unicast", 3, 2), ("wait", 0.02, None),
]
#: a fault window corrupts a unicast frame's every reception, the
#: bystanders' included; a frame sent after it closes still overlaps the
#: jammed one at 2, and the next is clean
JAMMED = [
    ("jam", None, None), ("unicast", 0, 1), ("meter", None, None),
    ("jam", None, None), ("unicast", 3, 2), ("wait", 0.02, None),
    ("unicast", 0, 1), ("wait", 1e-4, None), ("meter", None, None),
    ("wait", 0.02, None),
]
#: ``tests/test_net_carrier_sense.py``'s fringe field: 1 exactly on the
#: range threshold from 0; 2 inside the slack beyond Rc from 3 and across
#: the cell edge 3's grid window stops at; 4 just outside
FRINGE_SCRIPT = [
    ("unicast", 1, 0), ("unicast", 3, 2), ("wait", 1e-4, None), ("unicast", 4, 3),
    ("wait", 0.02, None), ("broadcast", 3, 64), ("wait", 1e-4, None),
    ("unicast", 0, 5), ("wait", 0.02, None),
]


@settings(max_examples=100, deadline=None)
@given(**WORLDS)
@example(statics=LINE, mobiles=LINE_PROXY, watch=True, script=TX_MID_RECEPTION)
@example(statics=LINE, mobiles=LINE_PROXY, watch=False, script=WAKE_IN_FLIGHT)
@example(statics=LINE, mobiles=LINE_PROXY, watch=True, script=JAMMED)
@example(statics=FRINGE_FIELD, mobiles=[(10.0, 0.0)], watch=True, script=FRINGE_SCRIPT)
def test_any_interleaving_agrees_with_the_oracle(statics, mobiles, watch, script):
    drive(statics, mobiles, watch, script)


def test_the_named_interleavings_do_what_they_say():
    """The explicit examples above reach the states they are named for."""
    world = drive(LINE, LINE_PROXY, True, TX_MID_RECEPTION)
    first, second, third = world.sent
    assert (first, "data", 2, "receiver_left_listening") in world.collisions
    assert (second, "data", 1, "overlap") in world.collisions
    assert (third, "data", 2) in world.rx and (third, "data", 4) in world.rx
    world = drive(LINE, LINE_PROXY, True, WAKE_IN_FLIGHT)
    first, second, third, fourth = world.sent
    assert (first, "data", 2, "receiver_left_listening") in world.collisions
    assert (second, "data", 2, "overlap") in world.collisions
    # asleep when the third frame began and woken under it: never received
    assert not [o for o in world.rx + world.collisions if o[0] == third and o[2] == 2]
    assert (fourth, "data", 2) in world.rx
    world = drive(LINE, LINE_PROXY, True, JAMMED)
    first, second, third = world.sent
    assert {c[2:] for c in world.collisions if c[0] == first} == {
        (1, "fault-degraded"), (2, "fault-degraded"), (4, "fault-degraded")
    }
    # the second overlaps the jammed first at 2; the jam's reason stays first
    assert (second, "data", 2, "overlap") in world.collisions
    assert (third, "data", 2) in world.rx


#: named mutations of the reader / bystander split: name -> (method of
#: ``Channel``, text to replace, replacement)
MUTATIONS = {
    "a frame starting mid-reception not checked against pending receptions": (
        "_begin_reception",
        "busy = self._busy_listeners(static_listeners, heard, px, py) if self._active else []",
        "busy = []",
    ),
    "a sleeping reader counted clean": (
        "_begin_reception",
        "        if not radio.listening:\n            continue\n        n = radio._rx_n",
        "        n = radio._rx_n",
    ),
    "a bystander's RX time dropped": (
        "_finish_transmission",
        "bystanders += 1\n                radio.energy.bystander_s += airtime\n"
        "        for listener in record.heard:",
        "bystanders += 1\n        for listener in record.heard:",
    ),
}


@pytest.mark.parametrize("name", MUTATIONS)
def test_property_fails_under_named_mutations(name, monkeypatch):
    """The property above is strong enough to tell: with any of the three
    mutants in place the same examples find a counterexample."""
    mutate(monkeypatch, Channel, *MUTATIONS[name])

    @settings(
        max_examples=60, deadline=None, derandomize=True, database=None,
        phases=[Phase.explicit, Phase.generate],
    )
    @given(**WORLDS)
    @example(statics=LINE, mobiles=LINE_PROXY, watch=True, script=TX_MID_RECEPTION)
    @example(statics=LINE, mobiles=LINE_PROXY, watch=False, script=WAKE_IN_FLIGHT)
    @example(statics=LINE, mobiles=LINE_PROXY, watch=True, script=JAMMED)
    def mutated(statics, mobiles, watch, script):
        drive(statics, mobiles, watch, script)

    with pytest.raises(AssertionError):
        mutated()


def test_a_bystander_of_a_mac_exchange_is_never_called():
    """Through the real MAC: a unicast send, its ACK and the success
    callback, with a third node in range of both ends."""
    sim = Simulator()
    network = make_network(sim, [Vec2(0, 0), Vec2(50, 0), Vec2(25, 40)])
    network.apply_backbone([0, 1, 2])
    sender, addressee, bystander = network.nodes
    got, calls, fates = [], [], []
    addressee.register_handler("data", lambda node, frame: got.append(frame.payload))
    for node in network.nodes:
        on_frame = node.deliver_frame

        def recording(frame, node=node, on_frame=on_frame):
            calls.append((node.node_id, frame.kind))
            on_frame(frame)

        node.deliver_frame = recording
    sender.send(Frame("data", 0, 1, 200, payload="hello"), fates.append)
    sim.run(until=0.1)
    assert got == ["hello"] and fates == [True]
    assert calls == [(1, "data"), (0, "mac-ack")]
    assert network.channel.frames_delivered == 4  # both frames, both listeners
    assert bystander.radio.rx_count == 0 and bystander.radio.state is RadioState.IDLE
    assert rx_seconds(bystander.radio, 0.1) > 0
