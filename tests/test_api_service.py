"""Service façade tests: session lifecycle, heterogeneity, admission.

These pin the API contract the redesign introduced:

* heterogeneous per-user queries (mixed periods/radii/aggregations) run
  concurrently on one shared world and score independently;
* ``handle.results()`` streams per-period outcomes while advancing the
  shared clock;
* ``handle.cancel()`` mid-run releases *all* ``(user_id, query_id)``
  in-network state — collector chains, tree states, flood dedup, a
  pending start — and in-flight frames cannot resurrect it;
* admission rejection provably leaves the kernel untouched, and a
  rejected user can resubmit successfully once the area drains.
"""

import pytest

from repro.api import (
    AcceptAllPolicy,
    AdmissionError,
    HorizonPassedError,
    PerAreaCapPolicy,
    PhaseAssignPolicy,
    QueryRequest,
    MobiQueryService,
    STATUS_ADMITTED,
    STATUS_CANCELLED,
    STATUS_COMPLETED,
    STATUS_REJECTED,
)
from repro.core.query import Aggregation
from repro.api.config import (
    MODE_IDLE,
    MODE_JIT,
    MODE_NP,
    ExperimentConfig,
)
from repro.geometry.vec import Vec2
from repro.mobility.models import patrol_path


def make_service(mode=MODE_JIT, duration=30.0, seed=1, admission=None):
    config = ExperimentConfig(mode=mode, seed=seed, duration_s=duration)
    return MobiQueryService(config, admission=admission)


def square_path(cx, cy, half=20.0, speed=3.0, loops=8):
    """A small deterministic loop centred at (cx, cy)."""
    return patrol_path(
        [
            Vec2(cx - half, cy - half),
            Vec2(cx + half, cy - half),
            Vec2(cx + half, cy + half),
            Vec2(cx - half, cy + half),
            Vec2(cx - half, cy - half),
        ],
        speed=speed,
        loops=loops,
    )


# ----------------------------------------------------------------------
# Heterogeneous workloads
# ----------------------------------------------------------------------
class TestHeterogeneousWorkload:
    def test_eight_user_mixed_run_scores_per_user(self):
        """The acceptance scenario: 8 mixed requests, per-user scoring."""
        service = make_service(duration=40.0, seed=5)
        mixes = [
            (2.0, 60.0, 1.0, Aggregation.AVG),
            (1.5, 40.0, 0.75, Aggregation.MAX),
            (3.0, 90.0, 1.5, Aggregation.MIN),
            (2.0, 75.0, 0.8, Aggregation.COUNT),
            (4.0, 120.0, 2.0, Aggregation.AVG),
            (1.5, 50.0, 1.0, Aggregation.AVG),
            (2.5, 60.0, 1.2, Aggregation.SUM),
            (3.0, 100.0, 1.0, Aggregation.MAX),
        ]
        handles = []
        for i, (period, radius, fresh, agg) in enumerate(mixes):
            handles.append(
                service.submit(
                    QueryRequest(
                        period_s=period,
                        radius_m=radius,
                        freshness_s=fresh,
                        aggregation=agg,
                        start_s=i * 2.5,
                    )
                )
            )
        assert all(h.accepted for h in handles)
        result = service.finalize()
        assert result.num_users == 8
        for i, handle in enumerate(handles):
            session = result.session_for(handle.user_id)
            period, _, _, _ = mixes[i]
            expected_periods = int((40.0 - i * 2.5) / period + 1e-9)
            assert session.metrics.num_periods == expected_periods
            # heterogeneity survives into the spec the protocol served
            assert handle.spec.period_s == period
        # the shared medium is imperfect but every user got real service
        assert result.min_success_ratio() > 0.5

    def test_aggregation_values_differ_by_function(self):
        """COUNT and AVG users over the same field see different values."""
        service = make_service(duration=12.0, seed=2)
        count_h = service.submit(
            QueryRequest(aggregation=Aggregation.COUNT, radius_m=80.0)
        )
        avg_h = service.submit(
            QueryRequest(aggregation=Aggregation.AVG, radius_m=80.0, start_s=1.0)
        )
        service.run()
        count_values = [
            o.value for o in count_h.results() if o.value is not None
        ]
        avg_values = [o.value for o in avg_h.results() if o.value is not None]
        assert count_values and avg_values
        # COUNT returns integers equal to the contributor count
        assert all(v == int(v) and v >= 1 for v in count_values)


# ----------------------------------------------------------------------
# Streaming results
# ----------------------------------------------------------------------
class TestStreaming:
    def test_results_stream_advances_the_clock(self):
        service = make_service(duration=16.0)
        handle = service.submit(QueryRequest(radius_m=60.0, period_s=2.0))
        seen = []
        for outcome in handle.results():
            assert service.sim.now >= outcome.deadline
            seen.append(outcome)
        assert [o.k for o in seen] == list(range(1, 9))
        assert all(
            later.deadline > earlier.deadline
            for earlier, later in zip(seen, seen[1:])
        )
        delivered = [o for o in seen if o.on_time]
        assert len(delivered) >= 6  # JIT at quick scale serves nearly all
        assert all(o.value is not None for o in delivered)

    def test_rejected_handle_refuses_streaming(self):
        service = make_service(admission=PerAreaCapPolicy(max_overlapping=1))
        first = service.submit(
            QueryRequest(radius_m=150.0, path=square_path(225.0, 225.0))
        )
        assert first.accepted
        second = service.submit(
            QueryRequest(radius_m=150.0, path=square_path(225.0, 225.0))
        )
        assert second.status == STATUS_REJECTED
        with pytest.raises(AdmissionError):
            list(second.results())
        with pytest.raises(AdmissionError):
            second.result()


# ----------------------------------------------------------------------
# Cancellation
# ----------------------------------------------------------------------
class TestCancellation:
    def test_cancel_mid_run_releases_all_in_network_state(self):
        service = make_service(duration=30.0)
        keeper = service.submit(QueryRequest(radius_m=60.0))
        victim = service.submit(QueryRequest(radius_m=60.0, start_s=2.0))
        service.advance(10.0)
        key, proxy_id = victim.session_key, victim.proxy.node_id
        protocol = service.protocol
        # mid-run the victim really owns state (a live prefetch chain)
        assert protocol.live_collector_periods(session=key)
        victim.cancel()
        assert victim.status == STATUS_CANCELLED
        # immediately after cancel: no collectors, no tree states, no slot
        assert protocol.live_collector_periods(session=key) == []
        assert protocol.tree_state_count(session=key) == 0
        assert service.unreleased_handles() == [keeper]
        assert proxy_id not in service.network.channel.mobile_ids()
        # the handle let go of the proxy; the closed gateway stays for scoring
        assert victim.proxy is None and victim.gateway.proxy is None
        deliveries_at_cancel = len(victim.gateway.deliveries)
        # in-flight frames must not resurrect the chain by the run's end
        result = service.finalize()
        assert protocol.live_collector_periods(session=key) == []
        assert protocol.tree_state_count(session=key) == 0
        assert len(victim.gateway.deliveries) == deliveries_at_cancel
        # the keeper kept running and scored over the full horizon
        keeper_score = result.session_for(keeper.user_id)
        assert keeper_score.metrics.num_periods == 15
        # the victim is scored only over its pre-cancel periods
        victim_score = result.session_for(victim.user_id)
        assert victim_score.metrics.num_periods == int((10.0 - 2.0) / 2.0)

    def test_cancel_before_start_releases_slot_silently(self):
        service = make_service(duration=20.0)
        first = service.submit(QueryRequest(radius_m=60.0))
        late = service.submit(QueryRequest(radius_m=60.0, start_s=15.0))
        assert late.gateway.start_pending and not first.gateway.start_pending
        late.cancel()
        assert late.status == STATUS_CANCELLED
        assert service.unreleased_handles() == [first]
        assert not late.gateway.start_pending
        service.run()
        assert late.gateway.deliveries == []
        assert late.gateway.current_profile is None  # it never started

    def test_np_cancel_releases_flood_dedup_state(self):
        service = make_service(mode=MODE_NP, duration=20.0)
        keeper = service.submit(QueryRequest(radius_m=60.0))
        victim = service.submit(QueryRequest(radius_m=60.0, start_s=1.0))
        service.advance(8.0)
        assert victim.gateway._flood_ids  # floods were launched
        floods_before = service.flood.live_flood_count()
        assert service.np_protocol.session_state_count(victim.session_key) > 0
        victim.cancel()
        assert service.flood.live_flood_count() < floods_before
        assert service.np_protocol.session_state_count(victim.session_key) == 0
        assert victim.gateway._flood_ids == []
        service.finalize()
        # dead-session guard: nothing regrew from in-flight frames
        assert service.np_protocol.session_state_count(victim.session_key) == 0
        assert keeper.gateway.deliveries  # keeper unaffected

    def test_np_cancel_with_frames_in_flight_does_not_reflood(self):
        """A straggler flood frame must not re-seed released dedup state."""
        service = make_service(mode=MODE_NP, duration=16.0)
        victim = service.submit(QueryRequest(radius_m=60.0))
        # stop right after the first issue: the flood's rebroadcast wave
        # (jittered relays, frames on the air) is still in flight
        service.advance(0.002)
        assert victim.gateway._flood_ids
        victim.cancel()
        assert service.flood.live_flood_count() == 0
        service.run()
        assert service.flood.live_flood_count() == 0

    def test_cancel_after_completion_keeps_completed_status(self):
        service = make_service(duration=12.0)
        handle = service.submit(QueryRequest(radius_m=60.0))
        service.finalize()
        handle.cancel()  # no-op: the session already ran to the horizon
        assert handle.status == STATUS_COMPLETED
        assert handle.cancelled_at is None

    def test_cancel_is_idempotent_and_skips_rejected(self):
        service = make_service(admission=PerAreaCapPolicy(max_overlapping=1))
        a = service.submit(QueryRequest(path=square_path(225.0, 225.0)))
        b = service.submit(QueryRequest(path=square_path(225.0, 225.0)))
        assert not b.accepted
        b.cancel()  # no-op, no raise
        a.cancel()
        a.cancel()  # idempotent
        assert a.status == STATUS_CANCELLED


# ----------------------------------------------------------------------
# Release at the last deadline (what the serve daemon does per session)
# ----------------------------------------------------------------------
class TestReleaseSessionState:
    def test_finished_session_is_scored_completed_and_torn_down_once(self):
        service = make_service(duration=30.0)
        keeper = service.submit(QueryRequest(radius_m=60.0))
        short = service.submit(QueryRequest(radius_m=60.0, lifetime_s=8.0))
        key, proxy = short.session_key, short.proxy.node_id
        service.advance(7.9)
        service.release_session_state(short)  # last deadline (8.0) still ahead
        assert short.status == STATUS_ADMITTED and not short.released
        assert proxy in service.network.channel.mobile_ids()
        service.advance(8.0)
        service.release_session_state(short)
        assert short.status == STATUS_COMPLETED and short.released
        assert service.network.channel.mobile_ids() == [keeper.proxy.node_id]
        assert service.protocol.tree_state_count(session=key) == 0
        assert service.unreleased_handles() == [keeper]
        assert short.proxy is None and short.gateway.proxy is None
        scored = short.result()  # cached: does not run the world on
        assert service.sim.now == 8.0 and scored.metrics.num_periods == 4
        teardowns = []
        service._teardown_session = teardowns.append
        service.release_session_state(short)
        short.cancel()
        assert not teardowns and short.status == STATUS_COMPLETED
        # close() returns the cached score, and the keeper ran on regardless
        result = service.close()
        assert result.session_for(short.user_id) is scored
        assert result.session_for(keeper.user_id).metrics.num_periods == 15
        assert service.stats().cancelled == 0

    def test_release_after_close_and_on_dead_handles_is_a_noop_or_once(self):
        service = make_service(
            duration=12.0, admission=PerAreaCapPolicy(max_overlapping=1)
        )
        ran, rejected, gone = (
            service.submit(QueryRequest(radius_m=60.0, path=square_path(x, x)))
            for x in (300.0, 300.0, 80.0)
        )
        assert not rejected.accepted
        gone.cancel()
        service.close()
        for handle in (rejected, gone, ran, ran):
            service.release_session_state(handle)
        assert ran.released and gone.released and not rejected.released
        assert (ran.status, gone.status) == (STATUS_COMPLETED, STATUS_CANCELLED)
        assert service.network.channel.mobile_ids() == []


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
class TestAdmission:
    def test_rejection_leaves_kernel_untouched(self):
        service = make_service(admission=PerAreaCapPolicy(max_overlapping=1))
        admitted = service.submit(
            QueryRequest(radius_m=150.0, path=square_path(225.0, 225.0))
        )
        assert admitted.accepted
        seq_before = service.sim._seq
        handles_before = service.unreleased_handles()
        mobiles_before = set(service.network.channel._mobile)
        rejected = service.submit(
            QueryRequest(radius_m=150.0, path=square_path(240.0, 240.0))
        )
        assert rejected.status == STATUS_REJECTED
        assert "area cap" in rejected.reason
        # no event entered the kernel, no session, no proxy on the channel
        assert service.sim._seq == seq_before
        assert service.unreleased_handles() == handles_before
        assert set(service.network.channel._mobile) == mobiles_before
        # after some simulated time, only the admitted session owns state
        service.advance(4.0)
        assert service.protocol.active_sessions() == [admitted.session_key]

    def test_rejected_then_resubmitted_user_succeeds(self):
        service = make_service(
            duration=30.0, admission=PerAreaCapPolicy(max_overlapping=1)
        )
        blocker = service.submit(
            QueryRequest(radius_m=150.0, path=square_path(225.0, 225.0))
        )
        comeback = service.submit(
            QueryRequest(
                radius_m=150.0, user_id=7, path=square_path(225.0, 225.0)
            )
        )
        assert not comeback.accepted
        service.advance(6.0)
        blocker.cancel()  # the area drains
        retry = service.submit(
            QueryRequest(
                radius_m=150.0, user_id=7, path=square_path(225.0, 225.0)
            )
        )
        assert retry.accepted
        assert retry.status == STATUS_ADMITTED
        result = service.finalize()
        score = result.session_for(7)
        assert score.metrics.num_periods > 0
        assert score.metrics.success_ratio() > 0.0

    def test_phase_assign_spreads_simultaneous_starts(self):
        service = make_service(
            duration=30.0, admission=PhaseAssignPolicy(slots=4)
        )
        handles = [
            service.submit(QueryRequest(radius_m=60.0, period_s=2.0))
            for _ in range(4)
        ]
        starts = [h.spec.start_s for h in handles]
        assert starts == [0.0, 0.5, 1.0, 1.5]

    def test_duplicate_live_user_id_is_a_clean_error(self):
        service = make_service()
        service.submit(QueryRequest(user_id=3))
        with pytest.raises(ValueError, match="already has a live session"):
            service.submit(QueryRequest(user_id=3))

    def test_idle_service_accepts_no_queries(self):
        service = make_service(mode=MODE_IDLE)
        with pytest.raises(ValueError, match="idle"):
            service.submit(QueryRequest())


# ----------------------------------------------------------------------
# Request validation at the boundary
# ----------------------------------------------------------------------
class TestRequestValidation:
    def test_freshness_beyond_period_rejected(self):
        with pytest.raises(ValueError, match="must not exceed"):
            QueryRequest(freshness_s=3.0, period_s=2.0)

    def test_non_positive_radius_rejected(self):
        with pytest.raises(ValueError, match="radius must be > 0"):
            QueryRequest(radius_m=0.0)

    def test_start_beyond_horizon_rejected(self):
        service = make_service(duration=10.0)
        with pytest.raises(ValueError, match="no serviceable period"):
            service.submit(QueryRequest(start_s=9.5, period_s=2.0))

    def test_start_beyond_horizon_draws_nothing(self):
        # The refusal comes before the user's walk is synthesised, so the
        # next pathless submit walks what a service that never saw the
        # refusal walks.
        refused, twin = make_service(duration=10.0), make_service(duration=10.0)
        with pytest.raises(HorizonPassedError, match="no serviceable period"):
            refused.submit(QueryRequest(start_s=9.5, period_s=2.0))
        assert refused.handles == []
        walks = [s.submit(QueryRequest()).path.waypoints for s in (refused, twin)]
        assert walks[0] == walks[1]

    def test_auto_user_ids_skip_live_ones(self):
        service = make_service()
        a = service.submit(QueryRequest())
        b = service.submit(QueryRequest())
        assert a.user_id == 0
        assert b.user_id == 1


# ----------------------------------------------------------------------
# Handle lifecycle edges: idempotence after completion and re-iteration
# ----------------------------------------------------------------------
class TestLifecycleEdges:
    def _completed_handle(self, duration=12.0):
        service = make_service(duration=duration)
        handle = service.submit(QueryRequest(radius_m=60.0, period_s=2.0))
        service.finalize()
        return service, handle

    def test_cancel_after_natural_completion_is_a_noop(self):
        service, handle = self._completed_handle()
        assert handle.status == STATUS_COMPLETED
        result_before = handle.result()
        handle.cancel()
        assert handle.status == STATUS_COMPLETED
        assert handle.cancelled_at is None
        assert handle.result() is result_before

    def test_double_cancel_is_a_noop(self):
        service = make_service(duration=20.0)
        handle = service.submit(QueryRequest(radius_m=60.0, period_s=2.0))
        service.advance(6.0)
        handle.cancel()
        assert handle.status == STATUS_CANCELLED
        first_cancelled_at = handle.cancelled_at
        events_after_first = service.sim.events_executed
        service.advance(8.0)
        handle.cancel()  # second cancel: state unchanged, no new teardown
        assert handle.status == STATUS_CANCELLED
        assert handle.cancelled_at == first_cancelled_at
        # and the service still scores the truncated session
        result = handle.result()
        assert result.metrics.num_periods <= 3
        assert events_after_first <= service.sim.events_executed

    def test_cancel_rejected_handle_is_a_noop(self):
        class RejectAll(AcceptAllPolicy):
            def decide(self, spec, path, service):
                from repro.api import AdmissionDecision

                return AdmissionDecision.reject("closed for testing")

        service = make_service(admission=RejectAll())
        handle = service.submit(QueryRequest())
        assert handle.status == STATUS_REJECTED
        handle.cancel()
        assert handle.status == STATUS_REJECTED
        assert service.sim.events_executed == 0

    def test_results_reiteration_is_safe_and_consistent(self):
        """A second results() pass replays the same outcomes (the world
        already advanced; records are immutable at their deadlines)."""
        service, handle = self._completed_handle()
        first = list(handle.results())
        second = list(handle.results())
        assert [o.k for o in first] == [o.k for o in second]
        assert [o.on_time for o in first] == [o.on_time for o in second]
        assert [o.value for o in first] == [o.value for o in second]
        assert [o.delivered_at for o in first] == [
            o.delivered_at for o in second
        ]

    def test_results_after_cancel_stop_at_cancellation(self):
        service = make_service(duration=20.0)
        handle = service.submit(QueryRequest(radius_m=60.0, period_s=2.0))
        stream = handle.results()
        first = next(stream)
        assert first.k == 1
        handle.cancel()
        remaining = list(stream)
        assert all(o.deadline <= handle.cancelled_at for o in remaining)
        # a fresh iteration honours the cancellation cutoff too
        replay = list(handle.results())
        assert [o.k for o in replay][: 1 + len(remaining)] == [
            o.k for o in [first] + remaining
        ]

    def test_result_on_rejected_handle_raises(self):
        class RejectAll(AcceptAllPolicy):
            def decide(self, spec, path, service):
                from repro.api import AdmissionDecision

                return AdmissionDecision.reject("no")

        service = make_service(admission=RejectAll())
        handle = service.submit(QueryRequest())
        with pytest.raises(AdmissionError, match="rejected"):
            handle.result()
        with pytest.raises(AdmissionError, match="rejected"):
            list(handle.results())
