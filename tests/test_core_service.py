"""Protocol integration tests: MobiQuery on small deterministic networks."""

import pytest

from repro.core.gateway import MobiQueryGateway
from repro.core.query import Aggregation, QuerySpec
from repro.core.service import MobiQueryConfig, MobiQueryProtocol
from repro.geometry.vec import Vec2
from repro.mobility.path import PiecewisePath
from repro.mobility.planner import FullKnowledgeProvider
from repro.net.field import UniformField
from repro.net.node import MobileEndpoint
from repro.net.routing import GeoRouter
from repro.sim.rng import RandomStreams
from repro.sim.trace import Tracer

from .conftest import make_network


def grid_positions(nx, ny, spacing, origin=0.0):
    return [
        Vec2(origin + i * spacing, origin + j * spacing)
        for j in range(ny)
        for i in range(nx)
    ]


class Stack:
    """A full MobiQuery stack over a deterministic grid network."""

    def __init__(
        self,
        sim,
        policy="jit",
        sleep_period=6.0,
        psm_offset=2.0,
        duration=30.0,
        period=2.0,
        freshness=1.0,
        radius=100.0,
        user_path=None,
        backbone=None,
        tracer=None,
        provider=None,
    ):
        self.sim = sim
        positions = grid_positions(6, 6, 42.0)  # 36 nodes over 210 m square
        self.network = make_network(
            sim,
            positions,
            comm_range=105.0,
            sleep_period=sleep_period,
            psm_offset=psm_offset,
            region_side=250.0,
            tracer=tracer,
        )
        self.tracer = self.network.tracer
        for node in self.network.nodes:
            node.field = UniformField(level=20.0)
        if backbone is None:
            # checkerboard backbone: connected, half the nodes
            backbone = [n.node_id for n in self.network.nodes if n.node_id % 2 == 0]
        self.network.apply_backbone(backbone)
        self.geo = GeoRouter(self.network)
        self.spec = QuerySpec(
            aggregation=Aggregation.AVG,
            radius_m=radius,
            period_s=period,
            freshness_s=freshness,
            lifetime_s=duration,
        )
        self.protocol = MobiQueryProtocol(
            self.network,
            self.geo,
            MobiQueryConfig(prefetch_policy=policy),
        )
        if user_path is None:
            user_path = PiecewisePath.stationary(Vec2(105, 105))
        self.path = user_path
        self.proxy = MobileEndpoint(
            node_id=50_000,
            channel=self.network.channel,
            rng=RandomStreams(77).stream("proxy"),
            position_fn=user_path.position_at,
        )
        self.network.channel.register_mobile(self.proxy)
        self.gateway = MobiQueryGateway(
            self.proxy,
            self.network,
            self.spec,
            self.protocol,
            provider or FullKnowledgeProvider(user_path, duration),
        )
        self.gateway.start()
        self.duration = duration

    def run(self, until=None):
        self.sim.run(until=self.duration + 0.5 if until is None else until)


class TestEndToEndDelivery:
    def test_results_delivered_every_period(self, sim):
        stack = Stack(sim)
        stack.run()
        delivered_ks = {d.k for d in stack.gateway.deliveries}
        assert delivered_ks == set(range(1, 16))

    def test_results_on_time(self, sim):
        stack = Stack(sim)
        stack.run()
        for d in stack.gateway.deliveries:
            assert d.time <= stack.spec.deadline(d.k) + 1e-9

    def test_contributors_only_from_query_area(self, sim):
        """Spatial constraint: contributors lie within Rq of the pickup."""
        stack = Stack(sim)
        stack.run()
        for d in stack.gateway.deliveries:
            area_ids = {
                n.node_id
                for n in stack.network.nodes_in_disk(Vec2(105, 105), stack.spec.radius_m)
            }
            assert set(d.contributors) <= area_ids

    def test_aggregate_value_matches_field(self, sim):
        """With a uniform field every AVG must equal the field level."""
        stack = Stack(sim)
        stack.run()
        assert stack.gateway.deliveries
        for d in stack.gateway.deliveries:
            assert d.value == pytest.approx(20.0)

    def test_sleepers_contribute_after_warmup(self, sim):
        stack = Stack(sim)
        stack.run()
        late = [d for d in stack.gateway.deliveries if d.k >= 8]
        assert late
        sleeper_ids = {n.node_id for n in stack.network.sleeper_nodes}
        for d in late:
            assert set(d.contributors) & sleeper_ids, "no sleeping node contributed"

    def test_full_fidelity_after_warmup(self, sim):
        stack = Stack(sim)
        stack.run()
        area_ids = {
            n.node_id
            for n in stack.network.nodes_in_disk(Vec2(105, 105), stack.spec.radius_m)
        }
        late = [d for d in stack.gateway.deliveries if d.k >= 10]
        best = max(len(set(d.contributors) & area_ids) / len(area_ids) for d in late)
        assert best >= 0.9


class TestFreshness:
    def test_readings_taken_within_freshness_window(self, sim):
        """Leaf wake overrides sit exactly at deadline - Tfresh."""
        stack = Stack(sim)
        read_times = []
        for node in stack.network.nodes:
            original = node.read_sensor

            def probe(node=node, original=original):
                read_times.append((stack.sim.now, node.node_id))
                return original()

            node.read_sensor = probe
        stack.run()
        assert read_times
        for t, _ in read_times:
            k = round(t / stack.spec.period_s + 0.5)
            deadline = k * stack.spec.period_s
            assert deadline - stack.spec.freshness_s - 1e-6 <= t <= deadline


class TestPrefetchTiming:
    def test_jit_holds_prefetch_until_bound(self, sim):
        tracer = Tracer(keep=["collector-assigned"])
        stack = Stack(sim, policy="jit", tracer=tracer)
        stack.run()
        bound_slack = 1.0  # transit + anycast delivery
        for record in tracer.records("collector-assigned"):
            k = record["k"]
            jit_time = stack.protocol.jit_forward_time(stack.spec, k)
            # assigned no earlier than the (k-1) send bound (or at t~0 catch-up)
            assert record.time >= max(0.0, jit_time) - bound_slack

    def test_greedy_assigns_all_collectors_early(self, sim):
        tracer = Tracer(keep=["collector-assigned"])
        stack = Stack(sim, policy="greedy", tracer=tracer)
        stack.run(until=5.0)
        ks = {r["k"] for r in tracer.records("collector-assigned")}
        # all 15 future pickup points claimed within the first seconds
        assert len(ks) >= 14

    def test_jit_limits_concurrent_trees(self, sim):
        stack = Stack(sim, policy="jit")
        counts = []
        def probe():
            counts.append(len(stack.protocol.live_collector_periods()))
        for t in range(5, 28):
            sim.schedule_at(float(t), probe)
        stack.run()
        # eq (12): ceil((Tsleep + 2 Tfresh)/Tp) + 1 = ceil(8/2)+1 = 5
        assert max(counts) <= 5 + 1

    def test_greedy_concurrent_trees_grow_with_lifetime(self, sim):
        stack = Stack(sim, policy="greedy")
        counts = []
        sim.schedule_at(3.0, lambda: counts.append(len(stack.protocol.live_collector_periods())))
        stack.run()
        assert counts[0] > 8


class TestStorageTraces:
    def test_storage_tracker_prefetch_length(self, sim):
        from repro.core.metrics import StorageTracker

        tracer = Tracer()
        stack = Stack(sim, policy="jit", tracer=tracer)
        storage = StorageTracker(tracer, stack.spec)
        stack.run()
        assert 1 <= storage.max_prefetch_length <= 6

    def test_greedy_prefetch_length_larger(self, sim):
        from repro.core.metrics import StorageTracker

        tracer = Tracer()
        stack = Stack(sim, policy="greedy", tracer=tracer)
        storage = StorageTracker(tracer, stack.spec)
        stack.run()
        assert storage.max_prefetch_length >= 13

    def test_tree_states_garbage_collected(self, sim):
        stack = Stack(sim)
        stack.run(until=stack.duration + 5.0)
        assert stack.protocol.tree_state_count() == 0
