"""The channel's mobile cell index against its brute-force oracle.

``Channel._begin_reception`` finds mobile listeners through a reach-bounded
cell index and range-tests them on the flat motion piece it holds for each;
``Channel.listeners_near`` is the loop over the whole fleet, one
``position_at`` each, that they replaced.  The cohort of every frame —
members *and order*, which decides the downstream event sequence — must be
the same from both, whatever the fleet does between frames and whichever of
``segment_at`` / ``position_at`` an endpoint offers.
"""

import ast
import math
import pathlib

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import repro.net
from repro.geometry.vec import Vec2
from repro.mobility.models import patrol_path
from repro.net.channel import _INDEX_WINDOW_S, Channel, _Tracked
from repro.net.energy import PowerModel
from repro.net.packet import BROADCAST, Frame
from repro.net.radio import Radio
from repro.sim.kernel import Simulator

from .mutants import mutate

#: side of the test field: under three radio ranges, so most frames have
#: mobile listeners and most proxies cross a cell edge within a window
FIELD_M = 300.0
FIRST_PROXY_ID = 1000

RC = 105.0  # the radio range, and so the side of the channel's grid cells
#: a separation whose square is, in floats, exactly the range test's
#: threshold ``Rc^2 + 1e-9``: in range with ``<=``, out of range with ``<``
ON_THE_THRESHOLD = 105.00000000000476
#: the fringe lattice every cell-addressing test runs on — metres off a
#: lattice point: nothing, inside the threshold's slack (4.76e-12 m at this
#: range), just outside it, and a nanometre
OFFSETS = [0.0, 2e-12, -2e-12, 4e-12, -4e-12, ON_THE_THRESHOLD - RC, 6e-12, -6e-12, 1e-9, -1e-9]


class Endpoint:
    """The least a channel needs of an endpoint: id, radio, position."""

    def __init__(self, sim, node_id, position_at, max_speed_mps=None, segment_at=None):
        self.node_id = node_id
        self.radio = Radio(sim, node_id, PowerModel())
        self._position_at = position_at
        self.position_calls = 0
        self.segment_calls = 0
        if max_speed_mps is not None:  # absent: the channel assumes unbounded
            self.max_speed_mps = max_speed_mps
        if segment_at is not None:  # absent: the channel asks position_at

            def counted(time):
                self.segment_calls += 1
                return segment_at(time)

            self.segment_at = counted

    def position_at(self, time):
        self.position_calls += 1
        return self._position_at(time)

    def deliver_frame(self, frame):
        pass


def fixed(sim, node_id, x, y):
    position = Vec2(x, y)
    return Endpoint(sim, node_id, lambda time: position)


def patrolling(sim, node_id, patrol, on_pieces=True):
    """A proxy on a patrol path: ``on_pieces`` offers the path's
    ``segment_at`` (what ``MobileEndpoint`` forwards), otherwise only its
    ``position_at``."""
    waypoints, speed = patrol
    path = patrol_path([Vec2(x, y) for x, y in waypoints], speed, loops=4)
    return Endpoint(
        sim, node_id, path.position_at, path.max_speed(),
        segment_at=path.segment_at if on_pieces else None,
    )


def teleporting(sim, node_id):
    """Crosses the field in under a second and declares no speed bound."""
    return Endpoint(
        sim, node_id, lambda time: Vec2(time * 613.0 % FIELD_M, time * 389.0 % FIELD_M)
    )


# a 1 m lattice: patrol hops are zero or walkable (a 1e-146 m hop adds no
# time at float precision), and 105, 210, ... sit exactly on cell edges;
# the fringe sits within a nanometre either side of an edge of the mobile
# index's cells (side Rc / 2): senders whose cell a rounding decides, and
# proxies a hair either side of Rc from a node on the lattice
coords = st.one_of(
    st.integers(min_value=0, max_value=int(FIELD_M)).map(float),
    st.builds(
        lambda cell, offset: cell * RC / 2.0 + offset,
        st.integers(min_value=0, max_value=int(FIELD_M // (RC / 2.0))),
        st.sampled_from(OFFSETS),
    ),
)
points = st.tuples(coords, coords)
patrols = st.tuples(
    st.lists(points, min_size=2, max_size=4),
    st.floats(min_value=0.5, max_value=15.0, allow_nan=False),
)
#: a patrol and which kind of endpoint walks it (``patrolling``'s arguments)
proxies = st.tuples(patrols, st.booleans())
fleets = st.integers(min_value=1, max_value=64).flatmap(
    lambda size: st.lists(proxies, min_size=size, max_size=size)
)
index = st.integers(min_value=0, max_value=10**6)
ops = st.one_of(
    # short waits keep churn and frames inside one window; long ones (up to
    # a window and a half) straddle its expiry
    st.tuples(st.just("wait"), st.floats(min_value=0.0, max_value=1.0)),
    st.tuples(st.just("wait"), st.floats(min_value=0.0, max_value=1.5 * _INDEX_WINDOW_S)),
    st.tuples(st.just("static-tx"), st.none()),  # a frame from every node
    st.tuples(st.just("static-tx"), st.none()),  # (twice: drawn twice as often)
    st.tuples(st.just("mobile-tx"), index),
    st.tuples(st.just("doze"), index),
    st.tuples(st.just("cancel"), index),
    st.tuples(st.just("join"), proxies),
    st.tuples(st.just("rejoin"), proxies),  # reuses the last cancelled id
)


class TestIndexedCohort:
    @settings(max_examples=150, deadline=None)
    @given(
        statics=st.lists(points, min_size=1, max_size=8),
        fleet=fleets,
        unbounded_at=st.one_of(st.none(), index),
        script=st.lists(ops, min_size=8, max_size=40),
    )
    def test_indexed_cohort_matches_brute_force(
        self, statics, fleet, unbounded_at, script
    ):
        sim = Simulator()
        channel = Channel(sim, comm_range=105.0, bitrate_bps=2e6)
        nodes = [fixed(sim, i, x, y) for i, (x, y) in enumerate(statics)]
        for node in nodes:
            channel.register_static(node)
        live = [
            patrolling(sim, FIRST_PROXY_ID + k, *proxy) for k, proxy in enumerate(fleet)
        ]
        next_id = FIRST_PROXY_ID + len(live)
        if unbounded_at is not None:
            live.insert(unbounded_at % (len(live) + 1), teleporting(sim, next_id))
            next_id += 1
        for proxy in live:
            channel.register_mobile(proxy)
        freed = []

        def transmit(sender):
            sender.radio.wake()
            position = sender.position_at(sim.now)
            expected = [
                ep
                for ep in channel.listeners_near(position, sim.now)
                if ep is not sender and ep.radio.listening
            ]
            frame = Frame("data", sender.node_id, BROADCAST, 64)
            airtime = channel.transmit(sender, frame)
            assert channel._active[-1].receivers == expected
            sim.run(until=sim.now + airtime)

        for kind, arg in script:
            if kind == "wait":
                sim.run(until=sim.now + arg)
            elif kind == "static-tx":
                for node in nodes:
                    transmit(node)
            elif kind == "join" or (kind == "rejoin" and not freed):
                live.append(patrolling(sim, next_id, *arg))
                next_id += 1
                channel.register_mobile(live[-1])
            elif kind == "rejoin":
                live.append(patrolling(sim, freed.pop(), *arg))
                channel.register_mobile(live[-1])
            elif not live:
                continue
            elif kind == "mobile-tx":
                transmit(live[arg % len(live)])
            elif kind == "doze":
                radio = live[arg % len(live)].radio
                radio.wake() if radio.is_sleeping else radio.sleep()
            elif kind == "cancel":
                gone = live.pop(arg % len(live))
                channel.unregister_mobile(gone.node_id)
                freed.append(gone.node_id)
        for node in nodes:  # whatever the script did, end on a frame from each
            transmit(node)

    def test_only_proxies_within_reach_are_positioned(self):
        """What the index is for: a frame range-tests the proxies that can
        be in range this window, not every registered one.  For an endpoint
        that offers only ``position_at`` a range test is a call."""
        sim = Simulator()
        channel = Channel(sim, comm_range=105.0, bitrate_bps=2e6)
        sender = fixed(sim, 0, 0.0, 0.0)
        channel.register_static(sender)
        legs = ([(50.0, 0.0), (60.0, 0.0)], 4.0), ([(400.0, 400.0), (390.0, 400.0)], 4.0)
        near, far = (
            patrolling(sim, 1000 + k, patrol, on_pieces=False)
            for k, patrol in enumerate(legs)
        )
        channel.register_mobile(near)
        channel.register_mobile(far)
        for _ in range(5):
            airtime = channel.transmit(sender, Frame("data", 0, BROADCAST, 64))
            assert channel._active[-1].receivers == [near]
            sim.run(until=sim.now + airtime)
        assert channel.mobile_range_tests == 5  # `near` every frame, `far` never
        assert near.position_calls == 1 + 5  # indexed once, then one per frame
        assert far.position_calls == 1  # indexed once, never a candidate

    def test_one_segment_call_per_piece_crossed(self):
        """What the motion pieces are for: a path-backed proxy is never
        asked ``position_at``, and is asked for a piece once however many
        frames, carrier senses and re-indexings fall inside it."""
        sim = Simulator()
        channel = Channel(sim, comm_range=105.0, bitrate_bps=2e6)
        sender = fixed(sim, 0, 0.0, 0.0)
        channel.register_static(sender)
        # 10 m legs at 4 m/s: a new piece every 2.5 s, a new window every 5 s
        walker = patrolling(sim, 1000, ([(30.0, 0.0), (40.0, 0.0)], 4.0))
        far = patrolling(sim, 1001, ([(400.0, 400.0), (390.0, 400.0)], 4.0))
        channel.register_mobile(walker)
        channel.register_mobile(far)
        instants = [0.3 * k for k in range(1, 40)]  # 0.3 .. 11.7 s
        for at in instants:
            sim.run(until=at)
            assert not channel.medium_busy(walker)
            airtime = channel.transmit(sender, Frame("data", 0, BROADCAST, 64))
            assert channel._active[-1].receivers == [walker]
            assert channel.busy_until(walker) == sim.now + airtime
        assert channel.mobile_range_tests == len(instants)  # `far` never
        assert walker.position_calls == far.position_calls == 0
        pieces = {int(at // 2.5) for at in instants}  # five of them
        assert walker.segment_calls == len(pieces)
        # positioned only when a window is indexed (at 0.3, 5.4 and 10.5 s),
        # each time on a new piece
        assert far.segment_calls == 3

    def test_reused_id_is_never_tested_on_the_old_piece(self):
        """Unregister, then register another endpoint under the same id in
        the same window: the newcomer is range-tested (and carrier-senses)
        on its own motion, not on the piece held for the departed one."""
        sim = Simulator()
        channel = Channel(sim, comm_range=105.0, bitrate_bps=2e6)
        sender = fixed(sim, 0, 0.0, 0.0)
        channel.register_static(sender)

        def cohort():
            expected = [
                ep
                for ep in channel.listeners_near(Vec2(0.0, 0.0), sim.now)
                if ep is not sender
            ]
            airtime = channel.transmit(sender, Frame("data", 0, BROADCAST, 64))
            heard = channel._active[-1].receivers
            assert heard == expected
            assert [ep for ep in registered if channel.medium_busy(ep)] == expected
            sim.run(until=sim.now + airtime)
            return heard

        inside = patrolling(sim, 1000, ([(50.0, 0.0), (60.0, 0.0)], 1.0))
        registered = [inside]
        channel.register_mobile(inside)
        assert cohort() == [inside]
        channel.unregister_mobile(1000)
        # 5.5 m out of range, walking away — but a candidate of the sender's cell
        outside = patrolling(sim, 1000, ([(110.5, 0.0), (120.0, 0.0)], 1.0))
        registered[:] = [outside]
        channel.register_mobile(outside)
        assert sim.now < channel._index_until  # the window `inside` was indexed in
        assert cohort() == []
        assert channel.mobile_range_tests == 2  # a candidate both times
        channel.unregister_mobile(1000)
        back = patrolling(sim, 1000, ([(0.0, 50.0), (0.0, 60.0)], 1.0), on_pieces=False)
        registered[:] = [back]
        channel.register_mobile(back)
        assert cohort() == [back]

    @pytest.mark.parametrize("bearing_deg", [180.0, 200.0, 225.0, 270.0])
    def test_proxy_walking_into_range_mid_window_is_heard(self, bearing_deg):
        """The reach bound, not the position at indexing time, decides
        membership.  The sender sits on the corner of its cell the walker
        approaches, so the walker starts 129.9 m from the *cell* — inside
        its reach (105 m + 5 m/s x 5 s) by 0.1 m — and is in radio range
        only for the last hundredth of the window."""
        sim = Simulator()
        channel = Channel(sim, comm_range=105.0, bitrate_bps=2e6)
        sender = fixed(sim, 0, 0.0, 0.0)
        channel.register_static(sender)
        bearing = math.radians(bearing_deg)
        start = (129.9 * math.cos(bearing), 129.9 * math.sin(bearing))
        walker = patrolling(sim, 1000, ([start, (0.0, 0.0)], 5.0))
        channel.register_mobile(walker)
        channel.transmit(sender, Frame("data", 0, BROADCAST, 64))
        assert channel._active[-1].receivers == []
        sim.run(until=4.99)
        assert sim.now < channel._index_until  # still the first window
        channel.transmit(sender, Frame("data", 0, BROADCAST, 64))
        assert channel._active[-1].receivers == [walker]


def cohorts_read_the_home(statics, fleet, waits):
    """Every frame's mobile cohort is the mobiles in range at the positions
    ``_Tracked.xy_at`` gives, in registration order: the range test's copy
    of it reads the same positions.  The home runs on trackers of its own."""
    sim = Simulator()
    channel = Channel(sim, comm_range=RC, bitrate_bps=2e6)
    nodes = [fixed(sim, i, x, y) for i, (x, y) in enumerate(statics)]
    for node in nodes:
        channel.register_static(node)
    proxies = [patrolling(sim, FIRST_PROXY_ID + k, *proxy) for k, proxy in enumerate(fleet)]
    for proxy in proxies:
        channel.register_mobile(proxy)
    homes = [_Tracked(proxy) for proxy in proxies]
    for wait in waits:
        sim.run(until=sim.now + wait)
        for (px, py), node in zip(statics, nodes):
            expected = []
            for home in homes:
                x, y = home.xy_at(sim.now)
                sep_x = x - px
                sep_y = y - py
                if sep_x * sep_x + sep_y * sep_y <= channel._range_sq:
                    expected.append(home.endpoint)
            airtime = channel.transmit(node, Frame("data", node.node_id, BROADCAST, 64))
            assert channel._active[-1].heard == expected
            sim.run(until=sim.now + airtime)


cohort_worlds = dict(
    statics=st.lists(points, min_size=1, max_size=4),
    fleet=fleets,
    waits=st.lists(
        st.floats(min_value=0.0, max_value=1.5 * _INDEX_WINDOW_S), min_size=1, max_size=8
    ),
)

#: named mutations of ``_Tracked.xy_at``'s copy in the range test of
#: ``Channel._begin_reception``: name -> (text to replace, replacement)
XY_AT_MUTATIONS = {
    "a motion piece kept past its end": (
        "if not t_lo <= now < t_hi:", "if not t_lo <= now:",
    ),
    "the x step taken for y": (
        "sep_y = y0 + dy * frac - py", "sep_y = y0 + dx * frac - py",
    ),
}


class TestRangeTestCopy:
    @settings(max_examples=60, deadline=None)
    @given(**cohort_worlds)
    def test_range_test_reads_the_positions_of_xy_at(self, statics, fleet, waits):
        cohorts_read_the_home(statics, fleet, waits)

    @pytest.mark.parametrize("name", XY_AT_MUTATIONS)
    def test_property_fails_under_named_mutations(self, name, monkeypatch):
        mutate(monkeypatch, Channel, "_begin_reception", *XY_AT_MUTATIONS[name])

        @settings(
            max_examples=60, deadline=None, derandomize=True, database=None,
            phases=[Phase.explicit, Phase.generate],
        )
        @given(**cohort_worlds)
        def mutated(statics, fleet, waits):
            cohorts_read_the_home(statics, fleet, waits)

        with pytest.raises(AssertionError):
            mutated()


class TestSpeedBoundContract:
    @pytest.mark.parametrize("bad", [-1.0, -math.inf, math.nan])
    def test_register_rejects_negative_or_nan_bound(self, bad):
        sim = Simulator()
        channel = Channel(sim, comm_range=105.0, bitrate_bps=2e6)
        proxy = Endpoint(sim, 1000, lambda time: Vec2(0.0, 0.0), max_speed_mps=bad)
        with pytest.raises(ValueError, match="max_speed_mps"):
            channel.register_mobile(proxy)
        with pytest.raises(KeyError):
            channel.endpoint(1000)  # rejected before it was recorded

    @pytest.mark.parametrize("fine", [0.0, 4.0, math.inf])
    def test_register_accepts_zero_finite_and_unbounded(self, fine):
        sim = Simulator()
        channel = Channel(sim, comm_range=105.0, bitrate_bps=2e6)
        proxy = Endpoint(sim, 1000, lambda time: Vec2(0.0, 0.0), max_speed_mps=fine)
        channel.register_mobile(proxy)
        assert channel.endpoint(1000) is proxy


def _runtime_imports(tree):
    """Top-level-or-nested imported module names, skipping ``if
    TYPE_CHECKING:`` blocks (annotations only, never executed)."""
    found = []
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if (
            isinstance(node, ast.If)
            and isinstance(node.test, ast.Name)
            and node.test.id == "TYPE_CHECKING"
        ):
            stack.extend(node.orelse)
            continue
        if isinstance(node, ast.Import):
            found.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append(node.module)
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_nothing_under_repro_net_imports_numpy():
    """The network layer is plain Python: positions, ranges and cohorts are
    float arithmetic in loops, and the last numpy code path (the mobile
    sweep) is gone.  RNG streams arrive as arguments."""
    package = pathlib.Path(repro.net.__file__).parent
    offenders = {
        path.name: names
        for path in sorted(package.glob("*.py"))
        if (
            names := [
                name
                for name in _runtime_imports(ast.parse(path.read_text()))
                if name.split(".")[0] == "numpy"
            ]
        )
    }
    assert not offenders
