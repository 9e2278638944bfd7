"""Carrier sense answered at the query, against the counters it replaced.

``Channel.medium_busy`` / ``busy_until`` scan the in-flight list from where
the asking endpoint is now; ``tests/carrier_sense_oracle.py`` is the
per-node counter bookkeeping (fed from the grid's ``query_disk`` at every
transmit and finish) that used to answer for static nodes.  Whatever the
field, the fleet and the interleaving of frames, airtime ends, registrations
and dozing radios, the two must give every registered endpoint the same
answer after every step — also for nodes a hair's breadth either side of
``Rc`` and of a grid-cell edge, where a distance test and a window of grid
cells could disagree.
"""


import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from repro.net.channel import Channel
from repro.net.packet import BROADCAST, Frame
from repro.sim.kernel import Simulator

from .carrier_sense_oracle import CarrierSenseOracle
from .mutants import mutate
# the fringe lattice (RC, ON_THE_THRESHOLD, OFFSETS) lives in the mobile
# index's test, which runs on it too and which this module imports anyway
from .test_net_mobile_index import (
    FIRST_PROXY_ID,
    OFFSETS,
    ON_THE_THRESHOLD,
    RC,
    fixed,
    patrolling,
)

# a 1 m lattice for the bulk of the field; the fringe sits within a
# nanometre of a multiple of Rc, i.e. of a cell edge *and* of being exactly
# Rc away from a neighbour on the same lattice
lattice = st.integers(min_value=0, max_value=330).map(float)
fringe = st.builds(
    lambda cell, offset: cell * RC + offset,
    st.integers(min_value=0, max_value=3),
    st.sampled_from(OFFSETS),
)
points = st.tuples(st.one_of(lattice, fringe), st.one_of(lattice, fringe))
patrols = st.tuples(
    st.lists(st.tuples(lattice, lattice), min_size=2, max_size=4),
    st.floats(min_value=0.5, max_value=15.0, allow_nan=False),
)
#: a proxy: on a patrol (offering motion pieces or only ``position_at``), or
#: parked on a point that may be one of the fringe's
proxies = st.one_of(
    st.tuples(st.just("patrol"), patrols, st.booleans()),
    st.tuples(st.just("parked"), points, st.none()),
)
index = st.integers(min_value=0, max_value=10**6)
sizes = st.sampled_from([0, 64, 500, 1500, 3000])  # 0.26 .. 12.3 ms on the air
ops = st.one_of(
    st.tuples(st.just("tx"), index, sizes),
    st.tuples(st.just("tx"), index, sizes),  # (twice: drawn twice as often)
    st.tuples(st.just("end"), st.none(), st.none()),  # to the next airtime end
    # inside an airtime, past one, past a motion piece, past an index window
    st.tuples(st.just("wait"), st.sampled_from([0.0, 2e-4, 1e-3, 0.3, 2.0, 7.0]), st.none()),
    st.tuples(st.just("doze"), index, st.none()),
    st.tuples(st.just("register-static"), points, st.none()),
    st.tuples(st.just("cancel"), index, st.none()),
    st.tuples(st.just("join"), proxies, st.none()),
    st.tuples(st.just("rejoin"), proxies, st.none()),  # reuses the last cancelled id
)
scripts = st.lists(ops, min_size=8, max_size=40)
#: what one example draws: a static field, a fleet and an interleaving
WORLDS = dict(
    statics=st.lists(points, min_size=1, max_size=8),
    fleet=st.lists(proxies, max_size=6),
    script=scripts,
)


def make_proxy(sim, node_id, proxy):
    kind, where, on_pieces = proxy
    if kind == "parked":
        return fixed(sim, node_id, *where)
    return patrolling(sim, node_id, where, on_pieces)


def drive(statics, fleet, script):
    sim = Simulator()
    channel = Channel(sim, comm_range=RC, bitrate_bps=2e6)
    oracle = CarrierSenseOracle(channel)
    nodes = []
    live = []
    freed = []
    next_proxy_id = FIRST_PROXY_ID

    def register_static(point):
        node = fixed(sim, len(nodes), *point)
        nodes.append(node)
        channel.register_static(node)
        oracle.register_static(node)

    def join(proxy, node_id):
        live.append(make_proxy(sim, node_id, proxy))
        channel.register_mobile(live[-1])

    def transmit(sender, size):
        radio = sender.radio
        if radio.is_sleeping or radio.is_transmitting:
            return
        frame = Frame("data", sender.node_id, BROADCAST, size)
        tx = oracle.transmit(
            sender, sender.position_at(sim.now), sim.now + channel.airtime(frame)
        )
        channel.transmit(sender, frame, lambda: oracle.finish(tx))

    def check():
        for endpoint in nodes + live:
            who = f"endpoint {endpoint.node_id} at t={sim.now!r}"
            assert channel.busy_until(endpoint) == oracle.busy_until(endpoint), who
            assert channel.medium_busy(endpoint) == oracle.medium_busy(endpoint), who

    for point in statics:
        register_static(point)
    for proxy in fleet:
        join(proxy, next_proxy_id)
        next_proxy_id += 1
    check()
    for kind, arg, size in script:
        if kind == "tx":
            endpoints = nodes + live
            transmit(endpoints[arg % len(endpoints)], size)
        elif kind == "end":
            if oracle.in_flight:
                sim.run(until=min(tx.end_time for tx in oracle.in_flight))
        elif kind == "wait":
            sim.run(until=sim.now + arg)
        elif kind == "doze":
            endpoints = nodes + live
            radio = endpoints[arg % len(endpoints)].radio
            radio.wake() if radio.is_sleeping else radio.sleep()
        elif kind == "register-static":
            register_static(arg)
        elif kind == "join" or (kind == "rejoin" and not freed):
            join(arg, next_proxy_id)
            next_proxy_id += 1
        elif kind == "rejoin":
            join(arg, freed.pop())
        elif kind == "cancel" and live:
            gone = live.pop(arg % len(live))
            channel.unregister_mobile(gone.node_id)
            freed.append(gone.node_id)
        check()
    sim.run(until=sim.now + 1.0)
    check()
    assert not oracle.in_flight and not any(oracle.count.values())


# Node 0 at the origin; node 1 exactly on the range threshold from it; node 2
# inside the threshold's slack beyond Rc from node 3 *and* across the cell
# edge that node 3's grid window stops at; node 4 just outside.  Two frames
# of different lengths overlap at node 0, a third is sent and sensed across
# the 210 m edge; then a proxy leaves mid-airtime and its id is taken over,
# and a node registers into the frames still on the air.
FRINGE_FIELD = [
    (0.0, 0.0), (ON_THE_THRESHOLD, 0.0), (210.0 - 2e-12, 50.0), (315.0, 50.0),
    (210.0 - 6e-12, 50.0),
]
FRINGE_FLEET = [("parked", (10.0, 0.0), None)]
FRINGE_SCRIPT = [
    ("tx", 1, 64), ("tx", 5, 1500), ("end", None, None), ("end", None, None),
    ("tx", 3, 500), ("end", None, None),
    ("tx", 5, 3000), ("cancel", 0, None), ("rejoin", ("parked", (12.0, 0.0), None), None),
    ("register-static", (20.0, 0.0), None), ("tx", 1, 64), ("end", None, None),
]


@settings(max_examples=150, deadline=None)
@given(**WORLDS)
@example(statics=FRINGE_FIELD, fleet=FRINGE_FLEET, script=FRINGE_SCRIPT)
def test_scan_answers_like_the_counters(statics, fleet, script):
    drive(statics, fleet, script)


def test_the_threshold_separation_is_exact():
    assert ON_THE_THRESHOLD * ON_THE_THRESHOLD == RC * RC + 1e-9


#: name -> (text of ``Channel.busy_until`` to replace, replacement)
MUTATIONS = {
    "own frame counted": ("if tx.sender_id == node_id:", "if False:"),
    "< for <= at the range test": ("<= range_sq", "< range_sq"),
    "first in-range end time, not the latest": (
        "if latest is None or tx.end_time > latest:", "if latest is None:",
    ),
}


@pytest.mark.parametrize("name", MUTATIONS)
def test_property_fails_under_named_mutations(name, monkeypatch):
    """The property above is strong enough to tell: with any of the three
    mutants in the scan's place the same examples find a counterexample."""
    mutate(monkeypatch, Channel, "busy_until", *MUTATIONS[name])

    @settings(
        max_examples=60, deadline=None, derandomize=True, database=None,
        phases=[Phase.explicit, Phase.generate],
    )
    @given(**WORLDS)
    @example(statics=FRINGE_FIELD, fleet=FRINGE_FLEET, script=FRINGE_SCRIPT)
    def mutated(statics, fleet, script):
        drive(statics, fleet, script)

    with pytest.raises(AssertionError):
        mutated()
