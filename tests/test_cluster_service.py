"""Tests for repro.cluster: partitioners, routing, identity, admission,
lockstep scheduling and the worker-replay transport."""

import pickle

import pytest

from repro.api import (
    BackendStats,
    MobiQueryService,
    QueryBackend,
    QueryRequest,
)
from repro.api.admission import PerAreaCapPolicy, PhaseAssignPolicy
from repro.api.scenarios import get_scenario, run_scenario
from repro.api.service import ServiceClosedError
from repro.cluster import (
    BalancedKDPartitioner,
    ClusterService,
    GridStripePartitioner,
    ReplayAdmissionPolicy,
    make_partitioner,
    overlap_area,
    run_shard_plan,
    shard_node_counts,
)
from repro.api.config import ExperimentConfig
from repro.geometry.shapes import Rect
from repro.geometry.vec import Vec2
from repro.mobility.models import patrol_path
from repro.net.network import NetworkConfig


def small_config(seed: int = 3, duration_s: float = 18.0, **kwargs) -> ExperimentConfig:
    """A fast world: 60 nodes, short horizon."""
    return ExperimentConfig(
        mode="jit",
        seed=seed,
        duration_s=duration_s,
        network=NetworkConfig(n_nodes=60, sleep_period_s=3.0),
        **kwargs,
    )


def submit_fleet(backend, n, period_s=2.0, spacing_s=1.5):
    return [
        backend.submit(
            QueryRequest(
                radius_m=50.0,
                period_s=period_s,
                freshness_s=1.0,
                start_s=i * spacing_s,
            )
        )
        for i in range(n)
    ]


def result_signature(backend, workload):
    stats = backend.stats()
    return (
        [(s.user_id, s.success_ratio, s.deliveries) for s in workload.sessions],
        stats.frames_sent,
        stats.frames_delivered,
        stats.frames_collided,
        stats.events_executed,
    )


# ----------------------------------------------------------------------
# Partitioners
# ----------------------------------------------------------------------
class TestPartitioners:
    def test_single_shard_is_the_whole_region(self):
        region = Rect.square(450.0)
        for maker in (GridStripePartitioner(), BalancedKDPartitioner()):
            assert maker.partition(region, 1) == [region]

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 8])
    def test_partitions_tile_the_region(self, k):
        region = Rect(10.0, 20.0, 460.0, 380.0)
        for maker in (GridStripePartitioner(), BalancedKDPartitioner()):
            cells = maker.partition(region, k)
            assert len(cells) == k
            total = sum(c.area() for c in cells)
            assert total == pytest.approx(region.area())
            for a in range(k):
                for b in range(a + 1, k):
                    assert overlap_area(cells[a], cells[b]) == pytest.approx(0.0)

    def test_kd_cells_are_near_square_and_equal_area(self):
        cells = BalancedKDPartitioner().partition(Rect.square(450.0), 4)
        areas = {round(c.area(), 6) for c in cells}
        assert len(areas) == 1
        for cell in cells:
            assert cell.width == pytest.approx(cell.height)

    def test_stripe_orientation(self):
        cells = GridStripePartitioner().partition(Rect.square(400.0), 4)
        assert all(c.height == pytest.approx(400.0) for c in cells)
        assert [c.x_min for c in cells] == [0.0, 100.0, 200.0, 300.0]

    def test_registry(self):
        assert make_partitioner("grid-stripe").name == "grid-stripe"
        assert make_partitioner(None).name == "balanced-kd"
        custom = BalancedKDPartitioner()
        assert make_partitioner(custom) is custom
        with pytest.raises(ValueError, match="unknown partitioner"):
            make_partitioner("voronoi")

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            BalancedKDPartitioner().partition(Rect.square(100.0), 0)

    def test_node_counts_preserve_total_and_density(self):
        regions = BalancedKDPartitioner().partition(Rect.square(450.0), 4)
        counts = shard_node_counts(200, regions)
        assert sum(counts) == 200
        assert counts == [50, 50, 50, 50]
        stripe_regions = GridStripePartitioner().partition(Rect.square(450.0), 3)
        counts = shard_node_counts(200, stripe_regions)
        assert sum(counts) == 200
        assert max(counts) - min(counts) <= 1

    def test_node_counts_require_a_node_per_shard(self):
        regions = BalancedKDPartitioner().partition(Rect.square(100.0), 4)
        with pytest.raises(ValueError, match="at least one node"):
            shard_node_counts(3, regions)


# ----------------------------------------------------------------------
# Backend protocol conformance
# ----------------------------------------------------------------------
class TestBackendProtocol:
    def test_both_backends_conform(self):
        config = small_config()
        assert isinstance(MobiQueryService(config), QueryBackend)
        assert isinstance(ClusterService(config, shards=2), QueryBackend)

    def test_service_stats_snapshot(self):
        service = MobiQueryService(small_config())
        submit_fleet(service, 2)
        service.close()
        stats = service.stats()
        assert isinstance(stats, BackendStats)
        assert stats.shards == 1
        assert stats.submitted == stats.admitted == 2
        assert stats.frames_sent > 0
        assert stats.now >= service.duration_s

    def test_close_is_idempotent_and_seals(self):
        service = MobiQueryService(small_config())
        submit_fleet(service, 1)
        first = service.close()
        assert service.close() is first
        with pytest.raises(ServiceClosedError, match="closed service"):
            service.submit(QueryRequest(radius_m=50.0))


# ----------------------------------------------------------------------
# Single-shard identity
# ----------------------------------------------------------------------
class TestSingleShardIdentity:
    def test_bit_identical_to_single_service(self):
        """ClusterService(shards=1) == MobiQueryService, bit for bit."""
        config = small_config()
        single = MobiQueryService(config)
        sig_single = result_signature(single, single.close())
        for partitioner in ("balanced-kd", "grid-stripe"):
            cluster = ClusterService(config, shards=1, partitioner=partitioner)
            sig_cluster = result_signature(cluster, cluster.close())
            assert sig_cluster == sig_single

    def test_shard0_keeps_the_base_seed_and_world(self):
        config = small_config(seed=9)
        cluster = ClusterService(config, shards=1)
        assert cluster.shard_configs[0] == config
        assert cluster.num_shards == 1

    def test_single_shard_identity_off_pin(self):
        """Identity holds away from the pinned seed/duration too."""
        spec = get_scenario("cluster_scale_64users").with_overrides(
            duration_s=16.0, seed=7, shards=1, workers=0
        )
        small = spec.to_dict()
        small["requests"] = [{**dict(spec.requests[0]), "count": 6}]
        spec = type(spec).from_dict(small)
        single = run_scenario(spec)
        cluster = run_scenario(
            spec, backend=ClusterService(spec.world(), shards=1)
        )
        assert (
            cluster.frames_sent,
            cluster.frames_delivered,
            cluster.events_executed,
        ) == (single.frames_sent, single.frames_delivered, single.events_executed)
        assert [s.success_ratio for s in cluster.workload.sessions] == [
            s.success_ratio for s in single.workload.sessions
        ]


# ----------------------------------------------------------------------
# Routing
# ----------------------------------------------------------------------
class TestRouting:
    def _cluster(self):
        return ClusterService(small_config(), shards=4)

    def test_pathless_requests_spread_least_loaded(self):
        cluster = self._cluster()
        submit_fleet(cluster, 8)
        assert [s.admitted_count() for s in cluster.services] == [2, 2, 2, 2]

    def test_pathless_tie_breaks_to_lowest_shard(self):
        """Every submit starts from an all-shards tie at some load level;
        the contract is explicit: ties go to the lowest shard index, so a
        pathless fleet walks the shards in index order, round after round."""
        cluster = self._cluster()
        for expected in (0, 1, 2, 3, 0, 1, 2, 3):
            request = QueryRequest(
                radius_m=50.0, period_s=2.0, freshness_s=1.0
            )
            assert cluster.route(request) == expected
            cluster.submit(request)

    def test_tie_routing_identical_serial_vs_workers(self, monkeypatch):
        """The tie-break must be the same decision the worker replay sees:
        a pathless fleet routed at submit time produces bit-identical
        results whether the shards finalize in-process or in a pool."""
        import os

        serial = ClusterService(small_config(), shards=4, workers=0)
        submit_fleet(serial, 8)
        expected = result_signature(serial, serial.finalize())
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        parallel = ClusterService(small_config(), shards=4, workers=4)
        submit_fleet(parallel, 8)
        assert [s.admitted_count() for s in parallel.services] == [2, 2, 2, 2]
        got = result_signature(parallel, parallel.finalize())
        assert got == expected

    def test_path_routes_by_footprint_overlap(self):
        cluster = self._cluster()
        # A patrol entirely inside one kd cell must land on that shard.
        for shard, region in enumerate(cluster.regions):
            c = region.center()
            path = patrol_path(
                [Vec2(c.x - 10, c.y - 10), Vec2(c.x + 10, c.y + 10)],
                speed=4.0,
                loops=8,
            )
            request = QueryRequest(radius_m=40.0, path=path)
            assert cluster.route(request) == shard

    def test_straddling_path_goes_to_best_overlap(self):
        cluster = self._cluster()
        # Mostly in shard 0's cell, nudged across the boundary.
        path = patrol_path(
            [Vec2(40.0, 40.0), Vec2(200.0, 40.0)],
            speed=4.0, loops=4,
        )
        request = QueryRequest(radius_m=60.0, path=path)
        shard = cluster.route(request)
        foot = cluster._footprint(request)
        overlaps = [overlap_area(foot, r) for r in cluster.regions]
        assert overlaps[shard] == max(overlaps)

    def test_user_ids_are_cluster_unique(self):
        cluster = self._cluster()
        handles = submit_fleet(cluster, 6)
        ids = [h.user_id for h in handles]
        assert ids == list(range(6))
        with pytest.raises(ValueError, match="already has a live session"):
            cluster.submit(QueryRequest(radius_m=50.0, user_id=3))

    def test_foreign_handle_rejected(self):
        cluster = self._cluster()
        other = MobiQueryService(small_config())
        handle = other.submit(QueryRequest(radius_m=50.0))
        with pytest.raises(ValueError, match="not issued by this cluster"):
            cluster.cancel(handle)


# ----------------------------------------------------------------------
# Cluster-wide admission
# ----------------------------------------------------------------------
class TestClusterAdmission:
    def test_phase_assign_counts_cluster_wide(self):
        """Phase slots rotate over the whole cluster, not per shard."""
        cluster = ClusterService(
            small_config(), shards=2, admission=PhaseAssignPolicy(slots=4)
        )
        handles = submit_fleet(cluster, 8, spacing_s=0.0)
        offsets = [
            round(h.spec.start_s - h.request.start_s, 6) for h in handles
        ]
        # 8 simultaneous submissions, 4 slots, cluster-wide rotation:
        # every slot of the 2s period is used exactly twice.
        assert offsets == [0.0, 0.5, 1.0, 1.5] * 2
        # A per-shard counter would have produced slot 0 four times.
        shards = [cluster.shard_of(h) for h in handles]
        assert len(set(shards)) == 2

    def test_per_area_cap_sees_other_shards(self):
        """A capped area rejects even when the sessions live on another
        shard object (single-shard worlds share one region here)."""
        cluster = ClusterService(
            small_config(duration_s=20.0),
            shards=2,
            partitioner="grid-stripe",
            admission=PerAreaCapPolicy(max_overlapping=2),
        )
        # Pin three users onto the same spot via explicit paths in shard 0's
        # stripe; the third must be rejected by the cluster-wide cap.
        spot = [Vec2(60.0, 200.0), Vec2(80.0, 220.0)]
        def make_request():
            return QueryRequest(
                radius_m=60.0,
                path=patrol_path(spot, speed=2.0, loops=10),
            )

        first = cluster.submit(make_request())
        second = cluster.submit(make_request())
        third = cluster.submit(make_request())
        assert first.accepted and second.accepted
        assert not third.accepted
        assert "area cap" in third.reason
        # Rejection left every shard kernel untouched.
        assert all(s.sim.events_executed == 0 for s in cluster.services)


# ----------------------------------------------------------------------
# Lockstep scheduling
# ----------------------------------------------------------------------
class TestLockstep:
    def test_bounded_skew_and_idempotence(self):
        cluster = ClusterService(small_config(), shards=3)
        submit_fleet(cluster, 3)
        cluster.advance(5.0)
        assert all(s.sim.now == pytest.approx(5.0) for s in cluster.services)
        epochs = cluster.scheduler.epochs_run
        assert epochs == 3  # 2 s epochs: to 2, 4, then 5
        cluster.advance(5.0)  # idempotent
        assert cluster.scheduler.epochs_run == epochs

    def test_streaming_interleaves_with_cluster_advance(self):
        cluster = ClusterService(small_config(), shards=2)
        handles = submit_fleet(cluster, 2)
        outcomes = []
        for outcome in handles[0].results():
            outcomes.append(outcome)
            if len(outcomes) == 2:
                break
        assert outcomes[0].k == 1 and outcomes[1].k == 2
        result = cluster.finalize()
        assert len(result.sessions) == 2


# ----------------------------------------------------------------------
# Worker transport (replay determinism; pools may be unavailable here)
# ----------------------------------------------------------------------
class TestWorkerTransport:
    def _cluster(self, workers=4):
        cluster = ClusterService(small_config(), shards=2, workers=workers)
        submit_fleet(cluster, 4)
        return cluster

    def test_plans_are_picklable(self):
        plans = self._cluster().export_shard_plans()
        assert sum(len(plan.requests) for plan in plans) == 4
        assert pickle.loads(pickle.dumps(plans))

    def test_replay_matches_in_process_run(self):
        """run_shard_plan on the recorded log == the in-process shard."""
        plans = self._cluster().export_shard_plans()
        serial = self._cluster(workers=0)
        expected = result_signature(serial, serial.finalize())
        outcomes = [run_shard_plan(plan) for plan in plans]
        sessions = sorted(
            (s for o in outcomes for s in o.sessions if s is not None),
            key=lambda s: s.user_id,
        )
        replayed = (
            [(s.user_id, s.success_ratio, s.deliveries) for s in sessions],
            sum(o.stats.frames_sent for o in outcomes),
            sum(o.stats.frames_delivered for o in outcomes),
            sum(o.stats.frames_collided for o in outcomes),
            sum(o.stats.events_executed for o in outcomes),
        )
        assert replayed == expected

    def test_workers_finalize_matches_serial(self, monkeypatch):
        """The pool path (forced past the cpu gate) is bit-identical."""
        import os

        serial = self._cluster(workers=0)
        expected = result_signature(serial, serial.finalize())
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        parallel = self._cluster(workers=4)
        got = result_signature(parallel, parallel.finalize())
        assert got == expected
        # On a sandboxed/1-CPU box the pool may have fallen back serially;
        # either way the results are identical and the flag is truthful.
        assert parallel.parallel_used in (True, False)

    def test_streaming_disables_replay(self):
        cluster = self._cluster(workers=4)
        next(iter(cluster.handles[0].results()))
        assert not cluster._parallel_eligible()
        result = cluster.finalize()
        assert not cluster.parallel_used
        assert len(result.sessions) == 4

    def test_cancel_disables_replay(self):
        cluster = self._cluster(workers=4)
        cluster.cancel(cluster.handles[1])
        assert not cluster._parallel_eligible()
        result = cluster.finalize()
        # all four submissions were admitted; the cancelled one scores
        # over its pre-cancel periods
        assert len(result.sessions) == 4

    def test_replay_policy_exhaustion_raises(self):
        policy = ReplayAdmissionPolicy([])
        with pytest.raises(RuntimeError, match="replay exhausted"):
            policy.decide(None, None, None)


# ----------------------------------------------------------------------
# Cancellation and mixed lifecycles through the cluster
# ----------------------------------------------------------------------
class TestClusterLifecycle:
    def test_cancel_mid_run_then_finalize(self):
        cluster = ClusterService(small_config(), shards=2)
        handles = submit_fleet(cluster, 4)
        cluster.advance(6.0)
        cluster.cancel(handles[2])
        assert handles[2].status == "cancelled"
        result = cluster.finalize()
        assert len(result.sessions) == 4
        cancelled = next(
            s for s in result.sessions if s.user_id == handles[2].user_id
        )
        full = next(s for s in result.sessions if s.user_id == handles[0].user_id)
        assert cancelled.metrics.num_periods < full.metrics.num_periods

    def test_submit_after_close_raises(self):
        cluster = ClusterService(small_config(), shards=2)
        submit_fleet(cluster, 2)
        cluster.close()
        with pytest.raises(ServiceClosedError, match="closed cluster"):
            cluster.submit(QueryRequest(radius_m=50.0))

    def test_stats_aggregate_over_shards(self):
        cluster = ClusterService(small_config(), shards=2)
        submit_fleet(cluster, 4)
        cluster.close()
        stats = cluster.stats()
        per_shard = [s.stats() for s in cluster.services]
        assert stats.shards == 2
        assert stats.submitted == 4
        assert stats.frames_sent == sum(p.frames_sent for p in per_shard)
        assert stats.events_executed == sum(p.events_executed for p in per_shard)
        assert stats.backbone_size == sum(p.backbone_size for p in per_shard)


class TestRunThenFinalize:
    def test_statuses_flip_to_completed(self):
        """run() before finalize() must still complete admitted handles
        (parity with the MobiQueryService lifecycle)."""
        cluster = ClusterService(small_config(), shards=2)
        handles = submit_fleet(cluster, 2)
        cluster.run()
        result = cluster.finalize()
        assert [h.status for h in handles] == ["completed", "completed"]
        assert len(result.sessions) == 2


class TestMobileIndexEquivalence:
    """The channel's mobile cell index against the whole-fleet loop, end to
    end (``tests/test_net_mobile_index.py`` pins it frame by frame)."""

    def test_churned_fleet_matches_whole_fleet_lookup(self, monkeypatch):
        """20 proxies (a fleet no golden suite reaches) with cancels and
        late submits inside index windows, over three window expiries.  The
        oracle run declares every proxy unbounded, which makes it a
        candidate for every frame — the brute-force loop."""
        import math

        from repro.mobility.path import PiecewisePath

        def run():
            service = MobiQueryService(small_config(seed=5, duration_s=16.0))
            handles = submit_fleet(service, 20, spacing_s=0.5)
            service.advance(6.0)
            for handle in handles[:3]:
                service.cancel(handle)
            service.advance(9.0)
            submit_fleet(service, 3, spacing_s=0.0)
            channel = service.network.channel
            lists = list(channel._cells.values())
            workload = service.close()
            return result_signature(service, workload), lists

        indexed, lists = run()
        assert lists and min(len(members) for members in lists) < 20
        monkeypatch.setattr(PiecewisePath, "max_speed", lambda self: math.inf)
        whole_fleet, lists = run()
        assert all(len(members) == 20 for members in lists)
        assert indexed == whole_fleet
