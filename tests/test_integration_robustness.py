"""Robustness and failure-injection integration tests."""

import pytest

from repro.core.gateway import MobiQueryGateway
from repro.core.metrics import build_session_metrics
from repro.core.query import QuerySpec
from repro.core.service import MobiQueryConfig, MobiQueryProtocol
from repro.geometry.vec import Vec2
from repro.mobility.path import PiecewisePath, Waypoint
from repro.mobility.planner import PlannerProfileProvider
from repro.net.node import MobileEndpoint
from repro.sim.rng import RandomStreams
from repro.sim.trace import Tracer

from .test_core_service import Stack


class TestMotionChangeAndCancel:
    def _turning_stack(self, sim, advance_time=0.0, tracer=None):
        """User walks east, then turns north at t=14 s."""
        path = PiecewisePath(
            [
                Waypoint(0.0, Vec2(60, 105)),
                Waypoint(14.0, Vec2(116, 105)),
                Waypoint(28.0, Vec2(116, 161)),
            ]
        )
        tracer = tracer if tracer is not None else Tracer()
        stack = Stack(
            sim,
            user_path=path,
            duration=28.0,
            tracer=tracer,
            provider=PlannerProfileProvider(path, 28.0, advance_time_s=advance_time),
        )
        return stack

    def test_cancel_releases_stale_collectors(self, sim):
        tracer = Tracer(keep=["collector-released"])
        stack = self._turning_stack(sim, advance_time=0.0, tracer=tracer)
        stack.run()
        reasons = {r.get("reason") for r in tracer.records("collector-released")}
        assert "cancelled" in reasons or "superseded" in reasons

    def test_results_continue_after_turn(self, sim):
        stack = self._turning_stack(sim, advance_time=0.0)
        stack.run()
        delivered_ks = {d.k for d in stack.gateway.deliveries}
        post_turn = {k for k in delivered_ks if k > 7}
        assert len(post_turn) >= 5

    def test_positive_advance_time_covers_the_turn(self, sim):
        stack = self._turning_stack(sim, advance_time=10.0)
        stack.run()
        metrics = build_session_metrics(
            stack.gateway, stack.network, stack.spec, stack.path, 28.0
        )
        post_turn = [r for r in metrics.records if r.k >= 8]
        good = sum(1 for r in post_turn if r.fidelity >= 0.95)
        assert good >= len(post_turn) - 2

    def test_reparenting_keeps_members_on_new_generation(self, sim):
        tracer = Tracer(keep=["collector-assigned"])
        stack = self._turning_stack(sim, advance_time=6.0, tracer=tracer)
        stack.run()
        # the same period may be claimed by two generations; the tree state
        # count must still drain to zero (no orphaned duplicates)
        sim.run(until=40.0)
        assert stack.protocol.tree_state_count() == 0


class TestFailureInjection:
    def test_collector_crash_loses_one_period_not_the_session(self, sim):
        tracer = Tracer(keep=["collector-assigned"])
        stack = Stack(sim, tracer=tracer)
        crashed = []

        def crash_first_collector():
            records = tracer.records("collector-assigned")
            if not records:
                sim.schedule(0.5, crash_first_collector)
                return
            target_k = None
            for r in records:
                if r["k"] >= 6:
                    target_k = r["k"]
                    node = stack.network.node_by_id(r["node"])
                    node.radio.sleep()  # crash: radio dies
                    # keep it dead by blocking wake
                    node.radio.wake = lambda: None
                    crashed.append(target_k)
                    return
            sim.schedule(0.5, crash_first_collector)

        sim.schedule(1.0, crash_first_collector)
        stack.run()
        assert crashed, "no collector found to crash"
        delivered_ks = {d.k for d in stack.gateway.deliveries}
        # the session survives: most later periods still deliver
        later = set(range(crashed[0] + 3, 15))
        assert len(later & delivered_ks) >= len(later) - 2

    def test_jammed_channel_recovers(self, sim):
        """Saturate the channel around the user for 3 s; service recovers."""
        from repro.net.packet import BROADCAST, Frame

        stack = Stack(sim)
        jammer = stack.network.node_by_id(14)  # mid-grid backbone node

        def jam():
            if sim.now > 9.0:
                return
            if not jammer.radio.is_sleeping and not jammer.radio.is_transmitting:
                stack.network.channel.transmit(
                    jammer, Frame("jam", jammer.node_id, BROADCAST, 1200)
                )
            sim.schedule(0.006, jam)

        sim.schedule(6.0, jam)
        stack.run()
        delivered_ks = {d.k for d in stack.gateway.deliveries}
        assert {12, 13, 14} <= delivered_ks  # post-jam periods recover


class TestConcurrentQueries:
    def test_two_users_do_not_interfere_logically(self, sim):
        stack = Stack(sim)
        # second user with an independent query on the same network
        path2 = PiecewisePath.stationary(Vec2(84, 126))
        proxy2 = MobileEndpoint(
            node_id=50_001,
            sim=sim,
            channel=stack.network.channel,
            rng=RandomStreams(88).stream("proxy2"),
            position_fn=path2.position_at,
        )
        stack.network.channel.register_mobile(proxy2)
        spec2 = QuerySpec(radius_m=80.0, period_s=2.0, freshness_s=1.0, lifetime_s=30.0)
        from repro.mobility.planner import FullKnowledgeProvider

        gateway2 = MobiQueryGateway(
            proxy2, stack.network, spec2, stack.protocol,
            FullKnowledgeProvider(path2, 30.0), stack.tracer,
        )
        gateway2.start()
        stack.run()
        ks1 = {d.k for d in stack.gateway.deliveries}
        ks2 = {d.k for d in gateway2.deliveries}
        assert len(ks1) >= 12
        assert len(ks2) >= 12
        # results are tagged with the right query and areas stay distinct
        for d in gateway2.deliveries:
            assert d.area_center.distance_to(Vec2(84, 126)) < 1.0


class TestCancelCrashChurn:
    """Heavy interleaved cancel + node-crash churn must leave *zero*
    residual state: no kernel events beyond the PSM floor, no wake-wheel
    registrations, no flood-dedup entries, no session left open.  The probe
    is the same census ``repro sweep`` runs per grid cell."""

    def _spec(self, faults):
        from repro.api.scenarios import ScenarioSpec

        return ScenarioSpec(
            name="churn",
            seed=5,
            duration_s=24.0,
            network={"n_nodes": 60, "sleep_period_s": 3.0},
            requests=(
                {"radius_m": 50.0, "period_s": 2.0, "freshness_s": 1.0,
                 "count": 4, "spacing_s": 1.0},
            ),
            faults=faults,
        )

    def test_cancel_churn_leaves_no_residue_fault_free(self):
        from repro.faults.sweep import churn_leak_probe

        leaks = churn_leak_probe(self._spec({}))
        assert leaks == {k: 0 for k in leaks}, leaks

    def test_cancel_churn_leaves_no_residue_under_faults(self):
        from repro.faults.sweep import churn_leak_probe

        faults = {
            "blackouts": [
                {"x": 112, "y": 112, "radius_m": 80, "at_s": 6.0,
                 "duration_s": 5.0}
            ],
            "degradations": [
                {"at_s": 12.0, "duration_s": 3.0, "corruption_prob": 0.4}
            ],
            "crashes": [{"node_id": 7, "at_s": 4.0}],  # never recovers
        }
        leaks = churn_leak_probe(self._spec(faults))
        assert leaks == {k: 0 for k in leaks}, leaks

    def test_recovering_nodes_cannot_resurrect_cancelled_state(self, sim):
        """A crash window spanning a cancellation: when the victims wake,
        the dead-session guards must drop any stale tree state instead of
        re-growing it."""
        from repro.api import MobiQueryService, QueryRequest
        from repro.api.config import ExperimentConfig
        from repro.faults import FaultPlan
        from repro.net.network import NetworkConfig

        plan = FaultPlan.from_dict(
            {"blackouts": [{"x": 60, "y": 60, "radius_m": 90, "at_s": 6.0,
                            "duration_s": 6.0}]}
        )
        config = ExperimentConfig(
            mode="jit", seed=5, duration_s=24.0,
            network=NetworkConfig(n_nodes=60, sleep_period_s=3.0),
        )
        service = MobiQueryService(config, faults=plan)
        handle = service.submit(
            QueryRequest(radius_m=50.0, period_s=2.0, freshness_s=1.0)
        ).require_admitted()
        service.advance(8.0)   # mid-blackout
        handle.cancel()
        service.advance(30.0)  # recovery + drain window
        assert service.protocol.tree_state_count() == 0
        assert service.protocol.collector_count() == 0
        assert service.flood.live_flood_count() == 0


class TestMetricsEdges:
    def test_no_deliveries_scores_zero(self, sim):
        stack = Stack(sim)
        # deaf proxy: results never arrive
        stack.proxy._handlers.pop("mq-result")
        stack.proxy.register_handler("mq-result", lambda p, f: None)
        sim.run(until=8.0)
        metrics = build_session_metrics(
            stack.gateway, stack.network, stack.spec, stack.path, 8.0
        )
        assert metrics.success_ratio() == 0.0
        assert all(r.delivered_at is None for r in metrics.records)

    def test_area_clipped_at_region_corner(self, sim):
        """A user near the field corner has a small (but valid) area."""
        path = PiecewisePath.stationary(Vec2(10, 10))
        stack = Stack(sim, user_path=path)
        stack.run(until=10.0)
        metrics = build_session_metrics(
            stack.gateway, stack.network, stack.spec, path, 10.0
        )
        for record in metrics.records:
            assert record.area_node_count > 0
            assert record.fidelity <= 1.0
