"""Approximate-session lifecycle: admission, teardown, exactness, wiring.

End-to-end contracts for the ``repro.approx`` subsystem:

* an ``accuracy="coarse"`` session is served entirely from the summary
  plane — zero frames on air — and still scores healthy success;
* cancel mid-drill-down releases every piece of summary state (the
  churn-leak census gained a ``summary_sessions`` key for this);
* ``accuracy="exact"`` is bit-identical to the pre-approx code: the
  golden fingerprints must not move with the accuracy field threaded;
* stale summaries surface as ``degraded_periods``, never silently;
* the NP baseline rejects approximate submissions loudly;
* the daemon-posture scenario keys validate and round-trip;
* the sweep's accuracy axis rewrites cell templates;
* the cluster composes per-shard summaries into boundary-free answers.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import MobiQueryService, QueryRequest
from repro.api.scenarios import (
    ScenarioSpec,
    build_requests,
    build_service,
    get_scenario,
    run_scenario,
)
from repro.core.query import Aggregation
from repro.api.config import (
    MODE_JIT,
    MODE_NP,
    ExperimentConfig,
    QueryParams,
)
from repro.experiments.runner import run_experiment
from repro.faults.sweep import SweepAxes, build_cells, leak_census
from repro.geometry.vec import Vec2
from repro.mobility.models import patrol_path
from repro.workload.arrivals import ARRIVAL_STAGGERED

from .test_approx_plane import nudged, nudges
from .test_pins import ledger_mismatches


def sweep_path(cx=200.0, cy=200.0, half=30.0, speed=12.0):
    return patrol_path(
        [
            Vec2(cx - half, cy),
            Vec2(cx + half, cy),
            Vec2(cx + half, cy + 10.0),
            Vec2(cx - half, cy + 10.0),
        ],
        speed=speed,
        loops=4,
    )


def approx_request(accuracy="coarse", freshness_s=3.0, start_s=0.0):
    return QueryRequest(
        radius_m=70.0,
        period_s=3.0,
        freshness_s=freshness_s,
        start_s=start_s,
        accuracy=accuracy,
        path=sweep_path(),
    )


def make_service(mode=MODE_JIT, duration=30.0, sleep_period=3.0):
    from repro.net.network import NetworkConfig

    config = ExperimentConfig(
        mode=mode,
        seed=3,
        duration_s=duration,
        network=NetworkConfig(sleep_period_s=sleep_period),
    )
    return MobiQueryService(config)


class TestApproxSessions:
    def test_coarse_session_sends_no_frames(self):
        service = make_service()
        handle = service.submit(approx_request())
        assert handle.accepted
        result = service.finalize()
        session = result.sessions[0]
        assert service.stats().frames_sent == 0
        assert session.success_ratio == 1.0
        assert session.deliveries > 0

    def test_outcomes_carry_error_bounds(self):
        service = make_service()
        handle = service.submit(approx_request())
        service.run()
        service.finalize()
        outcomes = [
            handle.period_outcome(k)
            for k in range(1, handle.spec.num_periods + 1)
        ]
        delivered = [o for o in outcomes if o is not None and o.delivered]
        assert delivered
        for outcome in delivered:
            assert outcome.error_bound is not None
            assert outcome.error_bound >= 0.0

    def test_plane_created_lazily_on_first_approx_admission(self):
        service = make_service()
        assert service.summary_plane is None
        service.submit(
            QueryRequest(radius_m=70.0, period_s=3.0, freshness_s=3.0)
        )
        assert service.summary_plane is None  # exact sessions never build it
        service.submit(approx_request(start_s=1.0))
        assert service.summary_plane is not None
        # registration happens when the gateway *starts*, not at submit
        assert service.summary_plane.session_count() == 0
        service.advance(2.0)
        assert service.summary_plane.session_count() == 1
        service.finalize()

    def test_stale_summaries_surface_as_degraded_periods(self):
        # 9 s beacon cycle vs a 1 s freshness bound: most periods answer
        # from a snapshot older than the bound — that must be *declared*.
        service = make_service(sleep_period=9.0)
        handle = service.submit(approx_request(freshness_s=1.0))
        service.run()
        result = service.finalize()
        session = result.sessions[0]
        assert session.degraded_periods > 0
        outcomes = [
            handle.period_outcome(k)
            for k in range(1, handle.spec.num_periods + 1)
        ]
        stale = [
            o for o in outcomes if o is not None and o.delivered
        ]
        assert stale, "stale answers are still delivered, just flagged"

    def test_fresh_summaries_are_not_degraded(self):
        service = make_service(sleep_period=3.0)
        service.submit(approx_request(freshness_s=3.0))
        result = service.finalize()
        assert result.sessions[0].degraded_periods == 0

    def test_np_mode_rejects_approximate_accuracy(self):
        service = make_service(mode=MODE_NP)
        with pytest.raises(ValueError, match="exact queries only"):
            service.submit(approx_request())


class TestCancelReleasesSummaryState:
    def test_cancel_mid_drilldown_leaves_zero_summary_residue(self):
        service = make_service(duration=30.0)
        handles = [
            service.submit(approx_request(start_s=float(i))) for i in range(3)
        ]
        service.advance(10.0)  # sessions live, drill state populated
        assert service.summary_plane.session_count() == 3
        handles[0].cancel()
        assert service.summary_plane.session_count() == 2
        service.advance(18.0)
        for handle in handles[1:]:
            handle.cancel()
        assert service.summary_plane.session_count() == 0
        census = leak_census(service)
        assert "summary_sessions" in census
        assert census == {key: 0 for key in census}

    def test_census_counts_live_approx_sessions(self):
        service = make_service(duration=30.0)
        service.submit(approx_request())
        service.advance(10.0)
        census = leak_census(service)  # mid-run: the session is live
        assert census["summary_sessions"] == 1
        service.finalize()

    def test_uav_survey_churn_probe_is_leak_free(self):
        from repro.faults.sweep import churn_leak_probe

        spec = get_scenario("uav-survey").with_overrides(duration_s=18.0)
        census = churn_leak_probe(spec)
        assert census == {key: 0 for key in census}


class TestExactBitIdentity:
    def test_exact_accuracy_leaves_golden_fingerprints_untouched(self):
        config = ExperimentConfig(
            mode=MODE_JIT,
            seed=1,
            duration_s=120.0,
            query=QueryParams(radius_m=60.0, accuracy="exact"),
        )
        result = run_experiment(config)
        # the ledger's ``single_user`` run, with the accuracy field threaded
        assert ledger_mismatches("single_user", result) == []

    def test_mixed_run_exact_sessions_unperturbed(self):
        """An approx session sharing the world must not move an exact one.

        The plane draws no RNG and schedules no kernel events, so the
        exact session's per-period outcomes are identical with and
        without an approximate neighbour.
        """
        def run(with_approx):
            service = make_service(duration=24.0)
            exact = service.submit(
                QueryRequest(radius_m=60.0, period_s=2.0, freshness_s=1.5)
            )
            if with_approx:
                service.submit(approx_request(start_s=0.5))
            service.run()
            service.finalize()
            return (
                exact.result().success_ratio,
                exact.result().deliveries,
                service.stats().events_executed,
            )

        alone = run(with_approx=False)
        mixed = run(with_approx=True)
        assert alone[0] == mixed[0]
        assert alone[1] == mixed[1]


class TestPostureKeys:
    def test_round_trip(self):
        payload = get_scenario("uav-survey").to_dict()
        payload.update(
            edge_rate=4.0, edge_burst=8.0, max_live_sessions=6, wal_flush=1
        )
        spec = ScenarioSpec.from_dict(payload)
        clone = ScenarioSpec.from_dict(spec.to_dict())
        assert clone.edge_rate == 4.0
        assert clone.edge_burst == 8.0
        assert clone.max_live_sessions == 6
        assert clone.wal_flush == 1

    @pytest.mark.parametrize(
        "key,value",
        [
            ("edge_rate", -1.0),
            ("edge_burst", -0.5),
            ("max_live_sessions", -1),
            ("max_live_sessions", True),
            ("wal_flush", 0),
            ("wal_flush", True),
        ],
    )
    def test_validation(self, key, value):
        payload = get_scenario("uav-survey").to_dict()
        payload[key] = value
        with pytest.raises((ValueError, TypeError)):
            ScenarioSpec.from_dict(payload)


class TestAccuracyThreading:
    def test_with_accuracy_rewrites_every_template(self):
        spec = get_scenario("uav-survey").with_accuracy("exact")
        assert all(t["accuracy"] == "exact" for t in spec.requests)
        for request in build_requests(spec):
            assert request.accuracy == "exact"

    def test_with_accuracy_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown accuracy"):
            get_scenario("uav-survey").with_accuracy("psychic")

    def test_sweep_accuracy_axis_rewrites_cells(self):
        base = get_scenario("uav-survey").with_overrides(duration_s=18.0)
        axes = SweepAxes(
            users=(2,),
            shards=(1,),
            intensities=(0.0,),
            arrivals=(ARRIVAL_STAGGERED,),
            accuracies=("exact", "coarse"),
        )
        cells = build_cells(base, axes)
        assert len(cells) == 2
        by_accuracy = {c.accuracy: c for c in cells}
        assert by_accuracy["exact"].payload["requests"][0]["accuracy"] == "exact"
        assert (
            by_accuracy["coarse"].payload["requests"][0]["accuracy"] == "coarse"
        )
        # default accuracy keeps the legacy cell name; coarse grows a suffix
        assert ".a-" not in by_accuracy["exact"].payload["name"]
        assert ".a-coarse" in by_accuracy["coarse"].payload["name"]

    def test_sweep_rejects_unknown_accuracy(self):
        with pytest.raises(ValueError, match="unknown sweep accuracy"):
            SweepAxes(accuracies=("fuzzy",))

    def test_density_axis_overrides_network(self):
        base = get_scenario("uav-survey").with_overrides(duration_s=18.0)
        axes = SweepAxes(
            users=(2,),
            shards=(1,),
            intensities=(0.0,),
            arrivals=(ARRIVAL_STAGGERED,),
            densities=(150,),
            radio_ranges=(90.0,),
        )
        (cell,) = build_cells(base, axes)
        assert cell.payload["network"]["n_nodes"] == 150
        assert cell.payload["network"]["comm_range_m"] == 90.0
        assert ".n150" in cell.payload["name"]
        assert ".r90" in cell.payload["name"]


@functools.lru_cache(maxsize=None)
def summary_cluster(shards):
    """A ``shards``-shard uav-survey cluster, built once (nothing runs)."""
    from repro.api.admission import make_admission_policy
    from repro.api.scenarios import _scenario_config
    from repro.cluster.service import ClusterService

    spec = get_scenario("uav-survey").with_overrides(duration_s=18.0, shards=shards)
    return ClusterService(
        _scenario_config(spec),
        shards=shards,
        admission=make_admission_policy(spec.admission),
        partitioner=spec.partitioner,
        workers=0,
        faults=spec.fault_plan(),
    )


@st.composite
def shard_fringe_disks(draw):
    """A disk on a 2- or 4-shard cluster whose edge (or centre) sits within
    a nudge of a shard region's edge, often off the field."""
    shards = draw(st.sampled_from([2, 4]))
    regions = summary_cluster(shards).regions
    radius = draw(
        st.one_of(
            st.sampled_from([30.0, 75.0, 105.0, 225.0]),
            st.floats(min_value=1.0, max_value=300.0),
        )
    )

    def coordinate(axis):
        region = draw(st.sampled_from(regions))
        edge = draw(st.sampled_from(
            [region.x_min, region.x_max] if axis == "x" else [region.y_min, region.y_max]
        ))
        reach = draw(st.sampled_from([-radius, 0.0, radius, 0.5 * radius]))
        return nudged(edge + reach, draw(nudges))

    return shards, Vec2(coordinate("x"), coordinate("y")), radius


class TestClusterSummaries:
    @settings(max_examples=300, deadline=None)
    @given(disk=shard_fringe_disks())
    def test_asks_exactly_the_shards_the_disk_meets(self, disk):
        """A shard answers iff the disk meets its region (edge touches
        included), by a brute-force nearest-point test on every region."""
        shards, center, radius = disk
        cluster = summary_cluster(shards)
        asked = []
        for index, service in enumerate(cluster.services):
            service.summary_answer = (
                lambda *args, index=index, **kwargs: asked.append(index)
            )
        try:
            assert cluster.summary_answer(center, radius, Aggregation.AVG) is None
        finally:
            for service in cluster.services:
                del service.summary_answer
        expected = []
        for index, region in enumerate(cluster.regions):
            dx = min(max(center.x, region.x_min), region.x_max) - center.x
            dy = min(max(center.y, region.y_min), region.y_max) - center.y
            if dx * dx + dy * dy <= radius * radius:
                expected.append(index)
        assert asked == expected

    def test_cluster_merge_is_boundary_free(self):
        from repro.api.admission import make_admission_policy
        from repro.api.scenarios import _scenario_config
        from repro.cluster.service import ClusterService

        spec = get_scenario("uav-survey").with_overrides(
            duration_s=18.0, shards=4
        )
        cluster = ClusterService(
            _scenario_config(spec),
            shards=4,
            admission=make_admission_policy(spec.admission),
            partitioner=spec.partitioner,
            workers=0,
            faults=spec.fault_plan(),
        )
        cluster.advance(6.0)
        center = Vec2(225.0, 225.0)  # straddles all four shard corners
        merged = cluster.summary_answer(center, 80.0, Aggregation.AVG)
        assert merged is not None
        partials = [
            s.summary_answer(center, 80.0, Aggregation.AVG)
            for s in cluster.services
        ]
        live = [p for p in partials if p is not None]
        assert len(live) > 1, "the disk must span multiple shards"
        assert merged.contributors == sum(p.contributors for p in live)
        total = sum(p.total for p in live)
        count = sum(p.count for p in live)
        assert merged.value == pytest.approx(total / count)

    def test_cluster_skips_shards_the_disk_misses(self):
        from repro.api.admission import make_admission_policy
        from repro.api.scenarios import _scenario_config
        from repro.cluster.service import ClusterService

        spec = get_scenario("uav-survey").with_overrides(
            duration_s=18.0, shards=4
        )
        cluster = ClusterService(
            _scenario_config(spec),
            shards=4,
            admission=make_admission_policy(spec.admission),
            partitioner=spec.partitioner,
            workers=0,
            faults=spec.fault_plan(),
        )
        cluster.advance(6.0)
        # a small disk deep inside one shard's region
        merged = cluster.summary_answer(Vec2(60.0, 60.0), 30.0, Aggregation.AVG)
        assert merged is not None
        corner = cluster.services[0].summary_answer(
            Vec2(60.0, 60.0), 30.0, Aggregation.AVG
        )
        assert merged.contributors == corner.contributors


class TestScenarioRun:
    def test_uav_survey_coarse_by_default(self):
        spec = get_scenario("uav-survey").with_overrides(duration_s=18.0)
        result = run_scenario(spec)
        assert result.frames_sent == 0
        assert result.admitted == 4
        assert result.mean_success == 1.0

    def test_accuracy_override_runs_the_exact_twin(self):
        spec = get_scenario("uav-survey").with_overrides(duration_s=18.0)
        result = run_scenario(spec, accuracy="exact")
        assert result.frames_sent > 0
