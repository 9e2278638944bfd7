"""One session, one owner: a gateway releases what it set up.

Two layers of the same rule:

* a gateway, standalone on a hand-built network with no service around
  it: after ``close()`` its in-network engine holds nothing for the
  session, and a second ``close()`` changes nothing;
* :class:`~repro.api.service.MobiQueryService`, under any interleaving of
  submit / advance / cancel / release: the proxies on the channel are
  exactly those of the admitted handles not torn down yet, the kernel
  holds a start event for exactly those of them whose ``start_s`` is still
  ahead, and once every session is gone the leak census is all-zero.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import MobiQueryService, QueryRequest
from repro.api.config import MODE_JIT, MODE_NP, ExperimentConfig, QueryParams
from repro.approx.gateway import ApproxGateway
from repro.approx.plane import SummaryPlane
from repro.core.gateway import BaseGateway
from repro.core.query import QuerySpec
from repro.faults.sweep import leak_census
from repro.geometry.shapes import Rect
from repro.geometry.vec import Vec2
from repro.mobility.path import PiecewisePath
from repro.net.network import NetworkConfig
from repro.sim.rng import RandomStreams
from repro.workload import build_proxy, proxy_id_for

from .test_core_baseline_gateway import NpStack
from .test_core_service import Stack


# ----------------------------------------------------------------------
# (a) a gateway alone
# ----------------------------------------------------------------------
def mobiquery_holdings(stack):
    """What the JIT engine holds for the stack's session, per table."""
    protocol, key = stack.protocol, stack.spec.session_key
    return (
        protocol.tree_state_count(key),
        sum(1 for k in protocol._collectors if k[:2] == key),
        sum(
            1
            for setups in protocol._pending_batches.values()
            for s in setups
            if (s.user_id, s.query_id) == key
        ),
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
        assert stack.protocol.session_state_count(*key) > 0
        assert stack.flood.live_flood_count() > 0
        stack.gateway.close()
        assert stack.protocol.session_state_count(*key) == 0
        assert stack.flood.live_flood_count() == 0  # every flood released
        pending = sim.pending_count
        stack.gateway.close()
        assert sim.pending_count == pending
        stack.run()
        assert stack.protocol.session_state_count(*key) == 0
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
        assert gateway.deliveries and plane.live_session_count() == 1
        answered = len(gateway.deliveries)
        gateway.close()
        assert plane.live_session_count() == 0
        gateway.close()
        assert plane.live_session_count() == 0
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


def make_world(mode):
    return MobiQueryService(
        ExperimentConfig(
            mode=mode,
            seed=3,
            duration_s=HORIZON_S,
            network=NetworkConfig(
                n_nodes=60, region=Rect.square(250.0), sleep_period_s=3.0
            ),
            query=QueryParams(radius_m=60.0),
        )
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


def run_interleaving(mode, script):
    service = make_world(mode)
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
    for handle in handles:  # everyone leaves: cancelled, or retired if done
        service.release_session_state(handle)
        handle.cancel()
        check_ownership(service, handles)
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


@pytest.mark.parametrize("mode", [MODE_JIT, MODE_NP])
class TestServiceOwnershipUnderInterleaving:
    @settings(max_examples=25, deadline=None)
    @given(script=steps)
    @example(script=CANCEL_BEFORE_START)
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
