"""Tests for the NP baseline and the proxy-side gateways."""

import pytest

from repro.core.baseline import NoPrefetchProtocol
from repro.core.gateway import BaseGateway, MobiQueryGateway, NoPrefetchGateway
from repro.core.query import QuerySpec
from repro.core.service import MobiQueryConfig, MobiQueryProtocol
from repro.geometry.vec import Vec2
from repro.mobility.path import PiecewisePath
from repro.mobility.planner import FullKnowledgeProvider
from repro.mobility.profile import MotionProfile
from repro.net.flooding import FloodManager
from repro.net.node import MobileEndpoint
from repro.net.routing import GeoRouter
from repro.sim.rng import RandomStreams
from repro.sim.trace import Tracer

from .conftest import make_network
from .test_core_service import Stack, grid_positions


class NpStack:
    """NP baseline over the same grid network as the MobiQuery Stack."""

    def __init__(self, sim, sleep_period=6.0, psm_offset=2.0, duration=30.0):
        self.sim = sim
        self.network = make_network(
            sim,
            grid_positions(6, 6, 42.0),
            sleep_period=sleep_period,
            psm_offset=psm_offset,
            region_side=250.0,
        )
        self.tracer = self.network.tracer
        self.network.apply_backbone(
            [n.node_id for n in self.network.nodes if n.node_id % 2 == 0]
        )
        self.geo = GeoRouter(self.network)
        self.flood = FloodManager(self.network)
        self.spec = QuerySpec(radius_m=100.0, period_s=2.0, freshness_s=1.0, lifetime_s=duration)
        self.protocol = NoPrefetchProtocol(self.network, self.geo, self.flood)
        self.proxy = MobileEndpoint(
            node_id=50_000,
            channel=self.network.channel,
            rng=RandomStreams(77).stream("proxy"),
            position_fn=lambda t: Vec2(105, 105),
        )
        self.network.channel.register_mobile(self.proxy)
        self.gateway = NoPrefetchGateway(
            self.proxy, self.network, self.spec, self.protocol, self.flood
        )
        self.gateway.start()
        self.duration = duration

    def run(self):
        self.sim.run(until=self.duration + 0.5)


class TestNoPrefetch:
    def test_backbone_nodes_respond(self, sim):
        stack = NpStack(sim)
        stack.run()
        active_ids = {n.node_id for n in stack.network.active_nodes}
        ks = sorted({d.k for d in stack.gateway.deliveries})
        assert len(ks) >= 12  # most periods produce at least some reports
        final = stack.gateway.deliveries_for(10)[-1]
        assert set(final.contributors) & active_ids

    def test_sleepers_rarely_contribute(self, sim):
        """NP cannot forewarn sleepers: their participation is limited to
        periods adjacent to a beacon window."""
        stack = NpStack(sim, sleep_period=6.0)
        stack.run()
        sleeper_ids = {n.node_id for n in stack.network.sleeper_nodes}
        per_period = []
        for k in range(2, 15):
            records = stack.gateway.deliveries_for(k)
            got = set(records[-1].contributors) if records else set()
            per_period.append(len(got & sleeper_ids) > 0)
        assert not all(per_period), "NP should miss sleepers in most periods"

    def test_np_fidelity_below_mobiquery(self, sim):
        from repro.sim.kernel import Simulator

        np_stack = NpStack(sim)
        np_stack.run()
        sim2 = Simulator()
        mq_stack = Stack(sim2)
        mq_stack.run()
        area = 100.0

        def mean_contributors(gateway, network):
            totals = []
            for k in range(8, 15):
                records = gateway.deliveries_for(k)
                totals.append(len(records[-1].contributors) if records else 0)
            return sum(totals) / len(totals)

        np_mean = mean_contributors(np_stack.gateway, np_stack.network)
        mq_mean = mean_contributors(mq_stack.gateway, mq_stack.network)
        assert mq_mean > np_mean

    def test_np_query_ignored_after_deadline(self, sim):
        stack = NpStack(sim)
        stack.run()
        # no reports recorded after their period deadline + tolerance
        for d in stack.gateway.deliveries:
            assert d.time <= stack.spec.deadline(d.k) + stack.spec.period_s


class TestMobiQueryGatewayLogic:
    def _gateway(self, sim):
        stack = Stack(sim)
        return stack, stack.gateway

    def test_injection_start_with_no_previous(self, sim):
        stack, gateway = self._gateway(sim)
        profile = MotionProfile(
            path=PiecewisePath.stationary(Vec2(105, 105)),
            ts=0.0, validity_s=30.0, tg=0.0,
        )
        assert gateway._injection_start_period(None, profile, 1) == 1

    def test_injection_waits_for_profile_ts(self, sim):
        stack, gateway = self._gateway(sim)
        profile = MotionProfile(
            path=PiecewisePath.stationary(Vec2(105, 105)),
            ts=10.0, validity_s=20.0, tg=0.0,
        )
        k = gateway._injection_start_period(None, profile, 1)
        assert stack.spec.deadline(k) >= 10.0
        assert stack.spec.deadline(k - 1) < 10.0

    def test_injection_skips_undiverged_periods(self, sim):
        stack, gateway = self._gateway(sim)
        old = MotionProfile(
            path=PiecewisePath.stationary(Vec2(105, 105)),
            ts=0.0, validity_s=30.0, tg=0.0,
        )
        # new prediction diverges only after t=20 (drift grows 5 m/s)
        new = MotionProfile(
            path=PiecewisePath.from_velocity(Vec2(105, 105), Vec2(5, 0), 0.0, 30.0),
            ts=0.0, validity_s=30.0, tg=0.0,
        )
        k = gateway._injection_start_period(old, new, 1)
        # drift exceeds 25 m after t = 5 s -> period 3
        assert k == 3

    def test_injection_skip_when_nothing_diverged(self, sim):
        stack, gateway = self._gateway(sim)
        old = MotionProfile(
            path=PiecewisePath.stationary(Vec2(105, 105)),
            ts=0.0, validity_s=30.0, tg=0.0,
        )
        new = MotionProfile(
            path=PiecewisePath.stationary(Vec2(106, 105)),
            ts=0.0, validity_s=30.0, tg=0.0,
        )
        assert gateway._injection_start_period(old, new, 1) > stack.spec.num_periods

    def test_stale_profile_ignored(self, sim):
        """A profile generated from older knowledge than the current one
        (earlier tg) must not replace it."""
        stack, gateway = self._gateway(sim)
        stack.run(until=1.0)
        adopted = gateway.current_profile
        stale = MotionProfile(
            path=PiecewisePath.stationary(Vec2(0, 0)),
            ts=0.0, validity_s=30.0, tg=adopted.tg - 5.0,
        )
        gateway._on_profile(stale)
        assert gateway.current_profile is adopted

    def test_watchdog_reinjects_after_silence(self, sim):
        tracer = Tracer()
        stack = Stack(sim, tracer=tracer)
        # Sabotage: drop every result frame by making the proxy deaf to them.
        stack.proxy._handlers.pop("mq-result")
        stack.proxy.register_handler("mq-result", lambda p, f: None)
        stack.run(until=12.0)
        assert tracer.count("watchdog-reinject") >= 1


class TestDeliveryRecords:
    def test_mobiquery_delivery_has_area_center(self, sim):
        stack = Stack(sim)
        stack.run()
        assert stack.gateway.deliveries
        for d in stack.gateway.deliveries:
            assert d.area_center is not None
            assert d.area_center.distance_to(Vec2(105, 105)) < 1.0

    def test_np_delivery_has_area_center(self, sim):
        stack = NpStack(sim)
        stack.run()
        assert stack.gateway.deliveries
        for d in stack.gateway.deliveries:
            assert d.area_center is not None

    def test_deliveries_sorted_per_k(self, sim):
        stack = NpStack(sim)
        stack.run()
        for k in range(1, 15):
            records = stack.gateway.deliveries_for(k)
            times = [r.time for r in records]
            assert times == sorted(times)

    def test_best_delivery_keeps_the_fullest_on_time_result(self, sim):
        """One rule for the streamed outcome and the scored record."""
        stack = Stack(sim)
        # a bare gateway beside the live one: it records only what it is told
        gateway = BaseGateway(stack.proxy, stack.network, stack.spec)
        deadline = gateway.spec.deadline(1)
        assert gateway.best_delivery(1) == (None, False)

        sim.run(until=deadline + 0.5)
        gateway.record_delivery(1, 1.0, frozenset({1}))
        sim.run(until=deadline + 0.7)
        gateway.record_delivery(1, 2.0, frozenset({1, 2}))
        late, on_time = gateway.best_delivery(1)
        assert (late.value, on_time) == (1.0, False)  # the first late one

        deadline = gateway.spec.deadline(2)
        for at, value, contributors in (
            (deadline - 0.6, 3.0, {1, 2, 3}),
            (deadline - 0.4, 4.0, {1, 2}),
            (deadline - 0.2, 5.0, {4, 5, 6}),
            (deadline + 0.1, 6.0, {1, 2, 3, 4}),
        ):
            sim.run(until=at)
            gateway.record_delivery(2, value, frozenset(contributors))
        best, on_time = gateway.best_delivery(2)
        # most contributors among the on-time ones, the later on a tie
        assert (best.value, on_time) == (5.0, True)
