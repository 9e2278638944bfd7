"""One session, one owner: a gateway releases what it set up.

Two layers of the same rule:

* a gateway, standalone on a hand-built network with no service around
  it: after ``close()`` its in-network engine holds nothing for the
  session, and a second ``close()`` changes nothing;
* :class:`~repro.api.service.MobiQueryService`, under any interleaving of
  submit / advance / cancel / release: the proxies on the channel are
  exactly those of the admitted handles not torn down yet, the kernel
  holds a start event for exactly those of them whose ``start_s`` is still
  ahead, each engine has a record for exactly those of them whose gateway
  has started — holding what the trace says that session holds
  (``tests/engine_session_oracle.py``) — and once every session is gone
  the leak census is all-zero.
"""


import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import MobiQueryService, QueryRequest
from repro.api.config import MODE_JIT, MODE_NP, ExperimentConfig
from repro.approx.gateway import ApproxGateway
from repro.approx.plane import SummaryPlane
from repro.core.gateway import BaseGateway
from repro.core.query import QuerySpec
from repro.core.service import MobiQueryProtocol
from repro.faults.plan import FaultPlan, NodeCrash
from repro.faults.sweep import leak_census
from repro.geometry.shapes import Rect
from repro.geometry.vec import Vec2
from repro.mobility.path import PiecewisePath
from repro.net.network import NetworkConfig
from repro.sim.rng import RandomStreams
from repro.workload import build_proxy, proxy_id_for

from .engine_session_oracle import EngineSessionShadow
from .mutants import mutate
from .test_core_baseline_gateway import NpStack
from .test_core_service import Stack


# ----------------------------------------------------------------------
# (a) a gateway alone
# ----------------------------------------------------------------------
def mobiquery_holdings(stack):
    """What the JIT engine holds for the stack's one session, per table."""
    protocol, key = stack.protocol, stack.spec.session_key
    return (
        protocol.tree_state_count(key),
        len(protocol.live_collector_periods(key)),
        protocol.pending_batch_count(),
    )


class TestGatewayReleasesWhatItSetUp:
    def test_mobiquery_gateway(self, sim):
        stack = Stack(sim)
        stack.tracer.keep_kind("session-closed")
        stack.run(until=9.0)
        trees, collectors, _ = mobiquery_holdings(stack)
        assert trees > 0 and collectors > 0  # mid-run it really owns state
        stack.gateway.close()
        assert mobiquery_holdings(stack) == (0, 0, 0)
        assert stack.gateway.proxy is None and stack.gateway.provider is None
        pending = sim.pending_count
        stack.gateway.close()  # a second close changes nothing
        assert mobiquery_holdings(stack) == (0, 0, 0)
        assert sim.pending_count == pending
        assert len(stack.tracer.records("session-closed")) == 1
        stack.run()  # frames in flight cannot regrow it
        assert mobiquery_holdings(stack) == (0, 0, 0)
        assert stack.protocol.active_sessions() == []

    def test_noprefetch_gateway(self, sim):
        stack = NpStack(sim)
        key = stack.spec.session_key
        stack.sim.run(until=8.0)
        assert stack.protocol.session_state_count(key) > 0
        assert stack.flood.live_flood_count() > 0
        stack.gateway.close()
        assert stack.protocol.session_state_count(key) == 0
        assert stack.flood.live_flood_count() == 0  # every flood released
        pending = sim.pending_count
        stack.gateway.close()
        assert sim.pending_count == pending
        stack.run()
        assert stack.protocol.session_state_count(key) == 0
        assert stack.flood.live_flood_count() == 0

    def test_approx_gateway(self, sim):
        stack = Stack(sim)  # for its network; the JIT session is a bystander
        plane = SummaryPlane(stack.network)
        path = PiecewisePath.stationary(Vec2(105, 105))
        spec = QuerySpec(
            radius_m=100.0, period_s=2.0, freshness_s=1.0, lifetime_s=30.0, user_id=1
        )
        proxy = build_proxy(
            1, path, stack.network, RandomStreams(5).stream("proxy"), stack.tracer
        )
        gateway = ApproxGateway(
            proxy, stack.network, spec, plane, path, "coarse", stack.tracer
        )
        gateway.begin()
        stack.run(until=9.0)
        assert gateway.deliveries and plane.session_count() == 1
        answered = len(gateway.deliveries)
        gateway.close()
        assert plane.session_count() == 0
        gateway.close()
        assert plane.session_count() == 0
        stack.run()
        assert len(gateway.deliveries) == answered
        assert stack.gateway.deliveries  # the bystander was not touched


# ----------------------------------------------------------------------
# (b) the service, under any interleaving
# ----------------------------------------------------------------------
HORIZON_S = 60.0

submits = st.tuples(
    st.just("submit"),
    st.sampled_from(["exact", "coarse"]),
    st.sampled_from([0.0, 3.0, 7.0]),  # start: now, or this far ahead
)
advances = st.tuples(st.just("advance"), st.sampled_from([0.5, 2.0, 5.0]))
cancels = st.tuples(st.just("cancel"), st.integers(0, 7))
releases = st.tuples(st.just("release"), st.integers(0, 7))
steps = st.lists(st.one_of(submits, advances, cancels, releases), min_size=1, max_size=14)


#: On this field the first user's collector is node 27 for every period and
#: node 44 the backbone node nearest its pickup point.  27 dies before its
#: first result is due, so collector duty moves to 44 three times; 44 was
#: down while the setup floods went out and back up before the first move,
#: so the first one *moves* the dead root's tree state to a node that has
#: none (the later ones fold it into the state 44 has got by then).
REELECTION_FAULTS = FaultPlan(
    crashes=(
        NodeCrash(node_id=44, at_s=0.0, recover_s=0.5),
        NodeCrash(node_id=27, at_s=1.0),
    )
)


def make_world(mode):
    return MobiQueryService(
        ExperimentConfig(
            mode=mode,
            seed=3,
            duration_s=HORIZON_S,
            network=NetworkConfig(
                n_nodes=60, region=Rect.square(250.0), sleep_period_s=3.0
            ),
        ),
        faults=REELECTION_FAULTS,
    )


def starts_a_gateway(fn):
    return getattr(fn, "__name__", "") == "start" and isinstance(
        getattr(fn, "__self__", None), BaseGateway
    )


def armed_starts(sim):
    """Live kernel events that would start a gateway (the ground truth the
    handle-derived ``pending_starts`` has to match)."""
    return sum(
        1
        for entry in sim._queue
        if entry[2] is not None and entry[2].pending and starts_a_gateway(entry[2].fn)
    )


def check_ownership(service, handles):
    open_handles = [h for h in handles if h.accepted and not h.released]
    assert sorted(service.network.channel.mobile_ids()) == sorted(
        proxy_id_for(h.user_id) for h in open_handles
    )
    # what leak_census reports as scheduler_slots / pending_starts
    assert service.unreleased_handles() == open_handles
    waiting = [h for h in open_handles if h.spec.start_s > service.sim.now]
    assert [h for h in open_handles if h.gateway.start_pending] == waiting
    assert armed_starts(service.sim) == len(waiting)
    for handle in handles:
        if handle.released:
            assert handle.proxy is None and handle.gateway.proxy is None
            assert handle.gateway.closed and not handle.gateway.start_pending


def check_engines(service, handles, shadow):
    """Each engine has one record per started, open session of its kind, and
    the JIT engine's answers about a session are the trace's."""
    started = [
        h
        for h in handles
        if h.accepted and not h.released and not h.gateway.start_pending
    ]
    summarised = [h for h in started if isinstance(h.gateway, ApproxGateway)]
    engine = service.protocol or service.np_protocol
    assert (engine.session_count() if engine else 0) == len(started) - len(summarised)
    plane = service.summary_plane
    assert (plane.session_count() if plane else 0) == len(summarised)
    protocol = service.protocol
    if protocol is None:
        return
    assert protocol.active_sessions() == shadow.active_sessions()
    assert protocol.tree_state_count() == sum(shadow.trees.values())
    assert protocol.collector_count() == sum(map(len, shadow.collectors.values()))
    for handle in handles:
        key = handle.session_key
        if handle.accepted:
            assert protocol.tree_state_count(key) == shadow.tree_state_count(key)
            assert protocol.live_collector_periods(
                key
            ) == shadow.live_collector_periods(key)


def run_interleaving(mode, script):
    service = make_world(mode)
    shadow = EngineSessionShadow(service.tracer)
    handles = []
    for step in script:
        if step[0] == "submit":
            _, accuracy, ahead = step
            if mode == MODE_NP:
                accuracy = "exact"  # the NP baseline serves exact queries only
            handles.append(
                service.submit(
                    QueryRequest(
                        radius_m=60.0,
                        period_s=2.0,
                        freshness_s=1.0,
                        lifetime_s=6.0,
                        start_s=service.sim.now + ahead,
                        accuracy=accuracy,
                    )
                )
            )
        elif step[0] == "advance":
            service.advance(min(service.sim.now + step[1], HORIZON_S - 10.0))
        elif handles:
            handle = handles[step[1] % len(handles)]
            if step[0] == "cancel":
                handle.cancel()
            else:
                service.release_session_state(handle)
        check_ownership(service, handles)
        check_engines(service, handles, shadow)
    for handle in handles:  # everyone leaves: cancelled, or retired if done
        service.release_session_state(handle)
        handle.cancel()
        check_ownership(service, handles)
        check_engines(service, handles, shadow)
    assert service.unreleased_handles() == []
    census = leak_census(service)
    assert census == dict.fromkeys(census, 0)


CANCEL_BEFORE_START = [
    ("submit", "exact", 0.0),
    ("submit", "exact", 7.0),
    ("submit", "coarse", 3.0),
    ("advance", 2.0),
    ("cancel", 1),
    ("cancel", 2),
    ("advance", 5.0),
    ("release", 0),
    ("advance", 5.0),
]


# The first user, served through all three re-elections of REELECTION_FAULTS
# (the first moves a tree state, the others fold one), then retired.
SERVED_THROUGH_REELECTIONS = [
    ("submit", "exact", 0.0),
    ("advance", 2.0),
    ("advance", 5.0),
    ("release", 0),
]

# Cancelled 4 ms in, with its setup floods on the air.
CANCEL_WITH_SETUPS_IN_FLIGHT = [
    ("submit", "exact", 0.0),
    ("advance", 0.004),
    ("cancel", 0),
    ("advance", 5.0),
]


@pytest.mark.parametrize("mode", [MODE_JIT, MODE_NP])
class TestServiceOwnershipUnderInterleaving:
    @settings(max_examples=25, deadline=None)
    @given(script=steps)
    @example(script=CANCEL_BEFORE_START)
    @example(script=SERVED_THROUGH_REELECTIONS)
    @example(script=CANCEL_WITH_SETUPS_IN_FLIGHT)
    def test_channel_and_census_follow_the_open_handles(self, mode, script):
        run_interleaving(mode, script)


class TestTheInterleavingCatchesAMissingRelease:
    """The mutation check: drop one line of the teardown and the
    interleaving above has to fail."""

    def test_without_unregister_mobile(self, monkeypatch):
        from repro.net.channel import Channel

        monkeypatch.setattr(Channel, "unregister_mobile", lambda self, node_id: None)
        with pytest.raises(AssertionError):
            run_interleaving(MODE_JIT, CANCEL_BEFORE_START)

    @pytest.mark.parametrize("mode", [MODE_JIT, MODE_NP])
    def test_without_the_start_event_cancel(self, monkeypatch, mode):
        from repro.sim.kernel import EventHandle

        cancel = EventHandle.cancel

        def keep_starts_armed(event):
            if not starts_a_gateway(event.fn):
                cancel(event)

        monkeypatch.setattr(EventHandle, "cancel", keep_starts_armed)
        with pytest.raises(AssertionError):
            run_interleaving(mode, CANCEL_BEFORE_START)


# ----------------------------------------------------------------------
# (c) released with its own cancel chase in flight
# ----------------------------------------------------------------------
def predictor_world():
    """One predictor-fed user for 80 s: at t = 58 a corrected profile is
    injected and, once the inject is through, a cancel chase is routed along
    the abandoned path, hop by hop."""
    service = MobiQueryService(ExperimentConfig(mode=MODE_JIT, seed=3, duration_s=80.0))
    return service, service.submit(QueryRequest(user_id=0, profile_mode="predictor"))


def cancel_route_times(monkeypatch):
    times = []
    route = MobiQueryProtocol._route_cancel

    def recording(self, node, message):
        times.append(self.sim.now)
        route(self, node, message)

    with monkeypatch.context() as patch:
        patch.setattr(MobiQueryProtocol, "_route_cancel", recording)
        service, _ = predictor_world()
        service.advance(80.0)
    return times


def release_near_each_cancel_route(monkeypatch, offset_s):
    routes = cancel_route_times(monkeypatch)
    assert routes  # the run really chases
    for routed_at in routes:
        service, handle = predictor_world()
        service.advance(routed_at + offset_s)
        handle.cancel()
        assert service.protocol.session_count() == 0
        service.advance(80.0)
        assert service.protocol.session_count() == 0
        census = leak_census(service)
        assert "engine_sessions" in census
        assert census == dict.fromkeys(census, 0)


class TestReleasedWithItsOwnChaseInFlight:
    """A cancel chase names its session; one that lands after the session
    was released must not file a mark (or anything else) under that key —
    nothing would ever release it again."""

    def test_chase_on_the_air(self, monkeypatch):
        release_near_each_cancel_route(monkeypatch, +2e-3)

    def test_inject_still_at_the_mac(self, monkeypatch):
        # the gateway is closed when its inject completes: no chase starts
        release_near_each_cancel_route(monkeypatch, -5e-4)

    def test_the_check_notices_a_mark_filed_for_a_released_session(self, monkeypatch):
        mutate(
            monkeypatch,
            MobiQueryProtocol,
            "_on_cancel",
            "record = self._sessions.get((msg.user_id, msg.query_id))",
            "record = self._sessions.setdefault((msg.user_id, msg.query_id), _SessionRecord())",
        )
        with pytest.raises(AssertionError):
            release_near_each_cancel_route(monkeypatch, +2e-3)


# ----------------------------------------------------------------------
# the engine half of (b) is strong enough to tell
# ----------------------------------------------------------------------
#: name -> (method of ``MobiQueryProtocol``, its text to replace, replacement,
#: the script that has to notice)
ENGINE_MUTATIONS = {
    "release leaves the record registered": (
        "release_session",
        "record = self._sessions.pop(key, None)",
        "record = self._sessions.pop(key, None); self._sessions[key] = _SessionRecord()",
        CANCEL_BEFORE_START,
    ),
    "a handler re-creates a missing record": (
        "_handle_setup",
        "self._sessions.get((setup.user_id, setup.query_id))",
        "self._sessions.setdefault((setup.user_id, setup.query_id), _SessionRecord())",
        CANCEL_WITH_SETUPS_IN_FLIGHT,
    ),
    "re-election files the moved tree state under no record": (
        "_reelect_collector",
        "trees[new_key] = old_state",
        "_SessionRecord().trees[new_key] = old_state",
        SERVED_THROUGH_REELECTIONS,
    ),
    "re-election drops a folded tree state without releasing it": (
        "_reelect_collector",
        "self._release_tree_state(old_state)",
        "pass",
        SERVED_THROUGH_REELECTIONS,
    ),
}


@pytest.mark.parametrize("name", ENGINE_MUTATIONS)
def test_property_fails_under_named_mutations(name, monkeypatch):
    """With any of the mutants in the method's place, one of the
    interleaving's explicit examples fails."""
    method, old, new, script = ENGINE_MUTATIONS[name]
    run_interleaving(MODE_JIT, script)  # the script passes on the real method
    mutate(monkeypatch, MobiQueryProtocol, method, old, new)
    with pytest.raises(AssertionError):
        run_interleaving(MODE_JIT, script)
