"""Tests for metrics: fidelity, success ratio, storage/contention trackers."""


import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from repro.api.scenarios import build_backend, get_scenario
from repro.core.metrics import (
    ContentionTracker,
    SessionMetrics,
    PeriodRecord,
    StorageTracker,
    measure_power,
)
from repro.core.query import QuerySpec
from repro.geometry.vec import Vec2
from repro.sim.trace import Tracer

from .conftest import all_active, line_positions, make_network
from .mutants import mutate


def record(k, fidelity, on_time=True, threshold=0.95):
    return PeriodRecord(
        k=k,
        deadline=k * 2.0,
        user_position=Vec2(0, 0),
        area_node_count=20,
        delivered_at=k * 2.0 - 0.05 if on_time else None,
        value=1.0,
        contributors_in_area=int(fidelity * 20),
        fidelity=fidelity,
        fidelity_actual=fidelity,
        prediction_error_m=0.0,
        on_time=on_time,
        success=on_time and fidelity >= threshold,
    )


class TestSessionMetrics:
    def test_success_ratio(self):
        metrics = SessionMetrics([record(1, 1.0), record(2, 0.5), record(3, 0.96)])
        assert metrics.success_ratio() == pytest.approx(2 / 3)

    def test_deadline_ratio(self):
        metrics = SessionMetrics(
            [record(1, 1.0), record(2, 1.0, on_time=False), record(3, 0.2)]
        )
        assert metrics.deadline_ratio() == pytest.approx(2 / 3)

    def test_mean_fidelity(self):
        metrics = SessionMetrics([record(1, 1.0), record(2, 0.5)])
        assert metrics.mean_fidelity() == pytest.approx(0.75)

    def test_empty_session(self):
        metrics = SessionMetrics([])
        assert metrics.success_ratio() == 0.0
        assert metrics.mean_fidelity() == 0.0

    def test_fidelity_series(self):
        metrics = SessionMetrics([record(1, 0.9), record(2, 1.0)])
        assert metrics.fidelity_series() == [(1, 0.9), (2, 1.0)]

    def test_warmup_detection(self):
        records = [record(k, 0.3) for k in range(1, 5)] + [
            record(k, 1.0) for k in range(5, 12)
        ]
        metrics = SessionMetrics(records)
        assert metrics.warmup_periods_observed() == 4

    def test_warmup_zero_when_immediately_good(self):
        metrics = SessionMetrics([record(k, 1.0) for k in range(1, 6)])
        assert metrics.warmup_periods_observed() == 0

    def test_warmup_never_stabilizes(self):
        metrics = SessionMetrics([record(k, 0.3) for k in range(1, 6)])
        assert metrics.warmup_periods_observed() == 5

    def test_warmup_ignores_transient_recovery(self):
        fidelities = [0.3, 1.0, 0.3, 1.0, 1.0, 1.0, 1.0]
        metrics = SessionMetrics([record(k + 1, f) for k, f in enumerate(fidelities)])
        assert metrics.warmup_periods_observed() == 3


class TestStorageTracker:
    def test_prefetch_length_counts_future_trees(self):
        tracer = Tracer()
        spec = QuerySpec(period_s=2.0, lifetime_s=40.0)
        tracker = StorageTracker(tracer, spec)
        # at t=1 (period 0), collectors exist for k = 3, 4, 5
        for k in (3, 4, 5):
            tracer.emit("collector-assigned", 1.0, k=k)
        assert tracker.max_prefetch_length == 3

    def test_released_collectors_not_counted(self):
        tracer = Tracer()
        spec = QuerySpec(period_s=2.0, lifetime_s=40.0)
        tracker = StorageTracker(tracer, spec)
        tracer.emit("collector-assigned", 1.0, k=3)
        tracer.emit("collector-released", 2.0, k=3)
        tracer.emit("collector-assigned", 2.5, k=9)
        assert tracker.max_prefetch_length == 1

    def test_heterogeneous_periods_use_each_sessions_own_clock(self):
        """Mixed period lengths: prefetch windows computed per session.

        A fast user (Tperiod=2 s, origin 0) and a slow user (Tperiod=5 s,
        origin 3 s) hold collectors at the same ``k`` values.  At t=11 the
        fast user is in period 5, so k=6,7 are 2 ahead; the slow user is in
        period 1, so k=2..4 are 3 ahead.  The old single-period fallback
        folded the slow user onto the fast spec's clock (period_index(11)
        = 5) and would have counted 0 for it.
        """
        tracer = Tracer()
        fast = QuerySpec(period_s=2.0, lifetime_s=40.0, user_id=0)
        slow = QuerySpec(period_s=5.0, lifetime_s=35.0, user_id=1, start_s=3.0)
        tracker = StorageTracker(tracer, fast, specs=[fast, slow])
        for k in (6, 7):
            tracer.emit(
                "collector-assigned", 11.0, k=k, user=0, query=fast.query_id
            )
        assert tracker.max_prefetch_length == 2
        for k in (2, 3, 4):
            tracer.emit(
                "collector-assigned", 11.0, k=k, user=1, query=slow.query_id
            )
        # worst chain is now the slow user's: k=2,3,4 vs current period 1
        assert tracker.max_prefetch_length == 3

    def test_register_spec_after_construction(self):
        """The service admits sessions mid-run; specs register dynamically."""
        tracer = Tracer()
        tracker = StorageTracker(tracer)
        late = QuerySpec(period_s=4.0, lifetime_s=40.0, user_id=7, start_s=2.0)
        # Unregistered session with no fallback spec: skipped, not crashed.
        tracer.emit("collector-assigned", 3.0, k=5, user=7, query=late.query_id)
        assert tracker.max_prefetch_length == 0
        tracker.register_spec(late)
        tracer.emit("collector-assigned", 3.1, k=6, user=7, query=late.query_id)
        # t=3.1 is period 0 of the late session; k=5 and k=6 are both ahead
        assert tracker.max_prefetch_length == 2

    def test_assignment_record_registers_its_spec(self):
        """A record carrying its session's ``spec`` (the engine's do) needs
        no ``register_spec``: the tracker takes the clock from it."""
        tracer = Tracer()
        tracker = StorageTracker(tracer)
        late = QuerySpec(period_s=4.0, lifetime_s=40.0, user_id=7, start_s=2.0)
        for k, now in ((5, 3.0), (6, 3.1)):
            tracer.emit(
                "collector-assigned", now, k=k, user=7, query=late.query_id,
                spec=late,
            )
        # t=3.1 is period 0 of the late session; k=5 and k=6 are both ahead
        assert tracker.max_prefetch_length == 2

    def test_tree_state_peak(self):
        tracer = Tracer()
        tracker = StorageTracker(tracer, QuerySpec(period_s=2.0, lifetime_s=40.0))
        for n in range(5):
            tracer.emit("tree-created", 1.0, node=n, k=1)
        tracer.emit("tree-released", 2.0, node=0, k=1)
        tracer.emit("tree-created", 3.0, node=9, k=2)
        assert tracker.max_tree_states == 5
        assert tracker.live_tree_states == 5

    def test_a_scenario_world_keeps_no_storage_tracker(self):
        """Only a Section 5 reader (``measured_section5``, ``repro run``)
        subscribes a tracker, to the world it injects into ``run_scenario``;
        a scenario's own world records no collector or tree event."""
        backend = build_backend(get_scenario("heterogeneous-mix"))
        assert not backend.tracer.wants("collector-assigned")


class RescanOracle:
    """``max_prefetch_length`` the way the tracker computed it before it kept
    collectors per session: every live collector of every session rescanned
    against its session's clock on each assignment, the worst chain kept."""

    def __init__(self, spec, specs):
        self.spec = spec
        self.spec_by_session = {
            s.session_key: s
            for s in (specs if specs is not None else ([spec] if spec else []))
        }
        self.live = set()
        self.max_prefetch_length = 0

    def assigned(self, user, query, k, now):
        self.live.add((user, query, k))
        per_session = {}
        for user, query, k in self.live:
            spec = self.spec_by_session.get((user, query), self.spec)
            if spec is not None and k > spec.period_index(now):
                per_session[(user, query)] = per_session.get((user, query), 0) + 1
        self.max_prefetch_length = max(
            self.max_prefetch_length, max(per_session.values(), default=0)
        )

    def released(self, user, query, k):
        self.live.discard((user, query, k))


#: period lengths and origins a session's spec is drawn from (and redrawn
#: from when ``register_spec`` replaces it under live collectors)
CLOCKS = st.tuples(st.sampled_from([0.7, 2.0, 5.0]), st.sampled_from([0.0, 3.0, 8.0]))


@st.composite
def tracker_steps(draw):
    """``(time since the last step, (kind, user, argument))`` for 1-6 users."""
    users = st.integers(0, draw(st.integers(0, 5)))
    ks = st.integers(0, 9)
    return draw(
        st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.0, 0.4, 1.0, 3.5]),
                st.one_of(
                    st.tuples(st.just("assign"), users, ks),
                    st.tuples(st.just("assign"), users, ks),
                    st.tuples(st.just("release"), users, ks),
                    st.tuples(st.just("register"), users, CLOCKS),
                ),
            ),
            min_size=1, max_size=40,
        )
    )


def session_spec(user, clock):
    period_s, start_s = clock
    return QuerySpec(
        period_s=period_s, lifetime_s=60.0, user_id=user, start_s=start_s, query_id=0
    )


def drive_tracker(fallback, upfront, steps):
    """Any interleaving of assign / release / re-assign of a live ``k`` /
    ``register_spec`` over up to six sessions: the tracker
    and the full rescan agree after every step."""
    spec = session_spec(0, fallback) if fallback else None
    specs = (
        [session_spec(user, clock) for user, clock in enumerate(upfront)]
        if upfront is not None else None
    )
    tracer = Tracer()
    tracker = StorageTracker(tracer, spec, specs=specs)
    oracle = RescanOracle(spec, specs)
    now = 0.0
    for step, (dt, (kind, user, arg)) in enumerate(steps):
        now += dt
        if kind == "assign":
            tracer.emit("collector-assigned", now, k=arg, user=user, query=0)
            oracle.assigned(user, 0, arg, now)
        elif kind == "release":
            tracer.emit("collector-released", now, k=arg, user=user, query=0)
            oracle.released(user, 0, arg)
        else:
            tracker.register_spec(session_spec(user, arg))
            oracle.spec_by_session[(user, 0)] = session_spec(user, arg)
        assert tracker.max_prefetch_length == oracle.max_prefetch_length, (
            f"step {step}: {kind} user {user} {arg!r} at t={now!r}"
        )


TRACKER_WORLDS = dict(
    fallback=st.one_of(st.none(), CLOCKS),  # the legacy ``spec=`` argument
    upfront=st.one_of(st.none(), st.lists(CLOCKS, min_size=1, max_size=6)),
    steps=tracker_steps(),
)


# A chain can read longer without an assignment of its own only when its
# session's clock changes: user 0's collectors for k = 2, 3, 4 are 1 ahead at
# t = 7 under the first spec and 3 ahead once the spec's origin moves to
# t = 8, and it is user 1's assignment that has to notice.
RESPEC = dict(
    fallback=None,
    upfront=[(2.0, 0.0), (2.0, 0.0)],
    steps=[
        (7.0, ("assign", 0, 2)), (0.0, ("assign", 0, 3)), (0.0, ("assign", 0, 4)),
        (0.0, ("register", 0, (2.0, 8.0))), (0.5, ("assign", 1, 1)),
    ],
)


@settings(max_examples=300, deadline=None)
@given(**TRACKER_WORLDS)
@example(**RESPEC)
def test_prefetch_length_recounts_one_session_like_the_full_rescan(
    fallback, upfront, steps
):
    drive_tracker(fallback, upfront, steps)


#: name -> (``StorageTracker`` method, text to replace, replacement)
TRACKER_MUTATIONS = {
    "counts against the wrong session's spec": (
        "_count_prefetch_length",
        "self._spec_by_session.get(session_key, self.spec)",
        "next(iter(self._spec_by_session.values()), self.spec)",
    ),
    "a clock changed under live collectors is not recounted": (
        "_clock_changed", "if session_key in self._live_collectors:", "if False:",
    ),
}


@pytest.mark.parametrize("name", TRACKER_MUTATIONS)
def test_property_fails_under_named_mutations(name, monkeypatch):
    """The property above is strong enough to tell whose clock a chain is
    counted on, and that a respec needs a recount: the same generator finds
    a counterexample for either mutant."""
    mutate(monkeypatch, StorageTracker, *TRACKER_MUTATIONS[name])

    @settings(
        max_examples=300, deadline=None, derandomize=True, database=None,
        phases=[Phase.explicit, Phase.generate],
    )
    @given(**TRACKER_WORLDS)
    @example(**RESPEC)
    def mutated(fallback, upfront, steps):
        drive_tracker(fallback, upfront, steps)

    with pytest.raises(AssertionError):
        mutated()


class TestContentionTracker:
    def _tracker(self, tracer):
        return ContentionTracker(
            tracer,
            sleep_period_s=9.0,
            active_window_s=0.1,
            query_radius_m=150.0,
            comm_range_m=105.0,
        )

    def test_overlapping_nearby_setups_interfere(self):
        tracer = Tracer()
        tracker = self._tracker(tracer)
        for i in range(3):
            tracer.emit(
                "tree-setup-start", 1.0 + i * 0.1, k=i, pickup_x=10.0 * i, pickup_y=0.0
            )
        # all three share the window ending at 9.1 and sit within range
        assert tracker.interference_length() == 2

    def test_time_separated_setups_do_not_interfere(self):
        tracer = Tracer()
        tracker = self._tracker(tracer)
        tracer.emit("tree-setup-start", 1.0, k=1, pickup_x=0.0, pickup_y=0.0)
        tracer.emit("tree-setup-start", 20.0, k=2, pickup_x=0.0, pickup_y=0.0)
        assert tracker.interference_length() == 0

    def test_space_separated_setups_do_not_interfere(self):
        tracer = Tracer()
        tracker = self._tracker(tracer)
        tracer.emit("tree-setup-start", 1.0, k=1, pickup_x=0.0, pickup_y=0.0)
        tracer.emit("tree-setup-start", 1.1, k=2, pickup_x=1000.0, pickup_y=0.0)
        assert tracker.interference_length() == 0

    def test_a_scenario_world_keeps_no_setup_intervals(self):
        """Only ``measured_section5`` reads the interference length, so
        only it subscribes a tracker; a scenario's own world, whose requests
        may have any radii, keeps no interval per tree setup."""
        backend = build_backend(get_scenario("heterogeneous-mix"))
        assert not backend.tracer.wants("tree-setup-start")


class TestPowerReport:
    def test_measures_both_roles(self, sim):
        network = make_network(sim, line_positions(4, 50.0), sleep_period=9.0, psm_offset=4.0)
        network.apply_backbone([0, 1])
        sim.run(until=90.0)
        report = measure_power(network)
        assert report.active_count == 2
        assert report.sleeper_count == 2
        # active nodes idle at 830 mW; sleepers mostly at 130 mW
        assert report.mean_active_power_w == pytest.approx(0.830, abs=0.02)
        assert 0.13 <= report.mean_sleeper_power_w <= 0.20

    def test_sleeper_power_decreases_with_sleep_period(self):
        from repro.sim.kernel import Simulator

        results = []
        for period in (3.0, 15.0):
            sim = Simulator()
            network = make_network(
                sim, line_positions(4, 50.0), sleep_period=period, psm_offset=1.0
            )
            network.apply_backbone([0])
            sim.run(until=120.0)
            results.append(measure_power(network).mean_sleeper_power_w)
        assert results[1] < results[0]
