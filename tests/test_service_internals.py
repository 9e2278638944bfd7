"""Unit tests for MobiQuery protocol internals (timing formulas, batching)."""

import pytest

from repro.core.messages import SetupMessage
from repro.core.query import QuerySpec
from repro.core.service import MobiQueryConfig
from repro.geometry.vec import Vec2

from .test_core_service import Stack


class TestSubDeadline:
    def _setup_message(self, stack, pickup=Vec2(105, 105), deadline=10.0):
        return SetupMessage(
            query_id=1,
            k=5,
            collector_id=0,
            pickup=pickup,
            area=stack.spec.area_at(pickup),
            deadline=deadline,
            freshness_s=stack.spec.freshness_s,
            pickup_radius_m=stack.protocol.config.pickup_radius_m,
            profile_generation=1,
            aggregation_attribute="temperature",
        )

    def test_eq1_at_collector_distance_zero(self, sim):
        stack = Stack(sim)
        setup = self._setup_message(stack)
        collector_node = min(
            stack.network.nodes,
            key=lambda n: n.position.distance_sq_to(Vec2(105, 105)),
        )
        du = stack.protocol._sub_deadline(collector_node, setup)
        # closest node: du near the deadline
        assert du > setup.deadline - 0.35

    def test_eq1_far_node_times_out_at_sense_time(self, sim):
        stack = Stack(sim)
        setup = self._setup_message(stack)
        far_node = max(
            stack.network.nodes,
            key=lambda n: n.position.distance_sq_to(Vec2(105, 105)),
        )
        du = stack.protocol._sub_deadline(far_node, setup)
        # |up| is clamped at Rp + Rq, so du is never before deadline - Tfresh
        assert du >= setup.deadline - stack.spec.freshness_s - 1e-9

    def test_eq1_monotone_in_distance(self, sim):
        stack = Stack(sim)
        setup = self._setup_message(stack)
        nodes = sorted(
            stack.network.nodes,
            key=lambda n: n.position.distance_sq_to(Vec2(105, 105)),
        )
        dus = [stack.protocol._sub_deadline(n, setup) for n in nodes]
        assert all(a >= b - 1e-12 for a, b in zip(dus, dus[1:]))


class TestJitForwardTime:
    def test_matches_analysis_module(self, sim):
        from repro.core.analysis import AnalysisParams, jit_forward_time

        stack = Stack(sim)
        params = AnalysisParams(
            t_period_s=stack.spec.period_s,
            t_fresh_s=stack.spec.freshness_s,
            t_sleep_s=stack.network.config.sleep_period_s,
            v_user_mps=4.0,
            v_prefetch_mps=200.0,
        )
        for k in (1, 5, 10):
            assert stack.protocol.jit_forward_time(stack.spec, k) == pytest.approx(
                jit_forward_time(k - 1, params)
            )


class TestBatchTiming:
    def test_batch_inside_window_sends_soon(self, sim):
        stack = Stack(sim, psm_offset=2.0)
        node = stack.network.active_nodes[0]
        sim.run(until=2.01)  # inside the window [2.0, 2.1]
        at = stack.protocol._next_batch_time(node)
        assert at - sim.now < 0.01

    def test_batch_outside_window_waits_for_next(self, sim):
        stack = Stack(sim, psm_offset=2.0)
        node = stack.network.active_nodes[0]
        sim.run(until=3.0)  # between windows (next at 8.0)
        at = stack.protocol._next_batch_time(node)
        assert 8.0 <= at <= 8.1


class TestQueryAreaOrientation:
    def test_query_area_is_the_disk_around_the_pickup(self, sim):
        stack = Stack(sim)
        sim.run(until=0.5)  # let the t=0 profile arrival be adopted
        profile = stack.gateway.current_profile
        area = stack.protocol.query_area(profile, stack.spec, 3)
        assert area.contains(Vec2(105, 105))
        assert area.center == stack.protocol.pickup_point(profile, stack.spec, 3)
        assert area.radius == stack.spec.radius_m

    def test_pickup_matches_profile_position(self, sim):
        stack = Stack(sim)
        sim.run(until=0.5)
        profile = stack.gateway.current_profile
        pickup = stack.protocol.pickup_point(profile, stack.spec, 4)
        assert pickup.is_close(profile.position_at(8.0))


class TestConfigValidation:
    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            MobiQueryConfig(prefetch_policy="eager")

    def test_bad_pickup_radius_rejected(self):
        with pytest.raises(ValueError):
            MobiQueryConfig(pickup_radius_m=0.0)
