"""Multi-user workload tests: concurrent sessions must not cross-contaminate.

Two users with heavily overlapping query areas run on one shared network
and one shared protocol instance.  The sessions' trees coexist on the same
backbone nodes — keyed by ``(user_id, query_id)`` — so these tests pin the
isolation properties: aggregates stay inside each user's own area,
cancellation chains only tear down their own session's state, and
collector/tree GC drains both sessions independently.
"""

import pytest

from repro.core.gateway import MobiQueryGateway
from repro.core.query import Aggregation, QuerySpec
from repro.core.service import MobiQueryConfig, MobiQueryProtocol
from repro.geometry.vec import Vec2
from repro.mobility.path import PiecewisePath
from repro.mobility.planner import FullKnowledgeProvider
from repro.mobility.profile import MotionProfile, ProfileArrival, ProfileProvider
from repro.net.field import UniformField
from repro.net.routing import GeoRouter
from repro.workload import arrival_times, build_proxy
from repro.workload.arrivals import (
    ARRIVAL_POISSON,
    ARRIVAL_SIMULTANEOUS,
    ARRIVAL_STAGGERED,
    ARRIVAL_UNIFORM,
)
from repro.sim.rng import RandomStreams

from .conftest import make_network


def grid_positions(nx, ny, spacing, origin=0.0):
    return [
        Vec2(origin + i * spacing, origin + j * spacing)
        for j in range(ny)
        for i in range(nx)
    ]


class ScriptedProvider(ProfileProvider):
    """A fixed list of profile arrivals (for motion-change scenarios)."""

    def __init__(self, scripted):
        self._arrivals = list(scripted)

    def arrivals(self):
        return self._arrivals


class MultiStack:
    """Two (or more) full MobiQuery sessions over one deterministic grid."""

    def __init__(
        self,
        sim,
        user_positions,
        starts=None,
        duration=30.0,
        period=2.0,
        radius=100.0,
        providers=None,
        policy="jit",
    ):
        self.sim = sim
        positions = grid_positions(6, 6, 42.0)  # 36 nodes over 210 m square
        self.network = make_network(
            sim,
            positions,
            comm_range=105.0,
            sleep_period=6.0,
            psm_offset=2.0,
            region_side=250.0,
        )
        self.tracer = self.network.tracer
        for node in self.network.nodes:
            node.field = UniformField(level=20.0)
        backbone = [n.node_id for n in self.network.nodes if n.node_id % 2 == 0]
        self.network.apply_backbone(backbone)
        self.geo = GeoRouter(self.network)
        self.protocol = MobiQueryProtocol(
            self.network,
            self.geo,
            MobiQueryConfig(prefetch_policy=policy),
        )
        self.duration = duration
        self.gateways = []
        self.paths = []
        self.specs = []
        streams = RandomStreams(77)
        starts = starts or [0.0] * len(user_positions)
        for user_id, position in enumerate(user_positions):
            path = PiecewisePath.stationary(position)
            spec = QuerySpec(
                aggregation=Aggregation.AVG,
                radius_m=radius,
                period_s=period,
                freshness_s=1.0,
                lifetime_s=duration - starts[user_id],
                user_id=user_id,
                start_s=starts[user_id],
            )
            provider = None
            if providers is not None:
                provider = providers[user_id]
            if provider is None:
                provider = FullKnowledgeProvider(path, duration)
            self.add_user(spec, path, provider, streams.stream(f"proxy.{user_id}"))

    def add_user(self, spec, path, provider, rng):
        """One user the way the service admits them: proxy, gateway, begin."""
        proxy = build_proxy(spec.user_id, path, self.network, rng)
        gateway = MobiQueryGateway(proxy, self.network, spec, self.protocol, provider)
        gateway.begin()
        self.gateways.append(gateway)
        self.paths.append(path)
        self.specs.append(spec)
        return gateway

    def run(self, until=None):
        self.sim.run(until=self.duration + 0.5 if until is None else until)

    def gateway(self, user_id):
        return self.gateways[user_id]

    def area_ids(self, user_id):
        spec = self.specs[user_id]
        center = self.paths[user_id].position_at(0.0)
        return {
            n.node_id
            for n in self.network.nodes_in_disk(center, spec.radius_m)
        }


#: two users ~40 m apart: query disks overlap almost completely
OVERLAPPING = [Vec2(85, 105), Vec2(125, 105)]


class TestConcurrentDelivery:
    def test_both_sessions_deliver_every_period(self, sim):
        stack = MultiStack(sim, OVERLAPPING)
        stack.run()
        for user_id in (0, 1):
            delivered = {d.k for d in stack.gateway(user_id).deliveries}
            assert delivered == set(range(1, 16)), f"user {user_id} missed periods"

    def test_aggregates_stay_inside_own_area(self, sim):
        """Overlapping trees on shared nodes must not leak contributors."""
        stack = MultiStack(sim, OVERLAPPING)
        stack.run()
        for user_id in (0, 1):
            area = stack.area_ids(user_id)
            for d in stack.gateway(user_id).deliveries:
                assert set(d.contributors) <= area, (
                    f"user {user_id} period {d.k} aggregated nodes outside "
                    f"their own query area"
                )

    def test_aggregate_values_uncontaminated(self, sim):
        """Uniform field: every AVG must be exactly the field level."""
        stack = MultiStack(sim, OVERLAPPING)
        stack.run()
        for user_id in (0, 1):
            for d in stack.gateway(user_id).deliveries:
                assert d.value == pytest.approx(20.0)

    def test_sessions_keyed_independently_in_protocol(self, sim):
        stack = MultiStack(sim, OVERLAPPING)
        counts = []

        def probe():
            counts.append(
                (
                    stack.protocol.tree_state_count(stack.specs[0].session_key),
                    stack.protocol.tree_state_count(stack.specs[1].session_key),
                    stack.protocol.tree_state_count(),
                )
            )

        sim.schedule_at(10.0, probe)
        stack.run()
        (a, b, total), = counts
        assert a > 0 and b > 0
        assert total == a + b


class TestStaggeredStart:
    def test_late_session_starts_at_its_origin(self, sim):
        stack = MultiStack(sim, OVERLAPPING, starts=[0.0, 6.0])
        stack.run()
        late = stack.gateway(1)
        assert late.deliveries, "staggered session never delivered"
        # user 1's first deadline is start + period = 8 s
        assert min(d.time for d in late.deliveries) > 6.0
        assert {d.k for d in late.deliveries} == set(range(1, 13))

    def test_early_session_unaffected_by_late_arrival(self, sim):
        solo = MultiStack(sim, [OVERLAPPING[0]])
        solo.run()
        solo_ks = {d.k for d in solo.gateway(0).deliveries}
        assert solo_ks == set(range(1, 16))

    def test_pre_start_profile_history_collapsed(self, sim):
        """A late-starting session adopts only the newest pre-start profile
        (replaying the full history would burst superseding chains)."""
        duration = 30.0
        # three distinct predicted positions (> the 25 m replace tolerance)
        spots = [Vec2(60, 60), Vec2(85, 105), Vec2(125, 145)]
        provider = ScriptedProvider(
            [
                ProfileArrival(
                    time=t,
                    profile=MotionProfile(
                        path=PiecewisePath.stationary(spot),
                        ts=t,
                        validity_s=duration,
                        tg=t,
                    ),
                )
                for t, spot in zip((0.0, 3.0, 9.0), spots)
            ]
        )
        stack = MultiStack(
            sim,
            [OVERLAPPING[0]],
            starts=[6.0],
            duration=duration,
            providers=[provider],
        )
        stack.tracer.keep_kind("profile-adopted")
        stack.run()
        adoptions = stack.tracer.records("profile-adopted")
        # one collapsed pre-start adoption at t=6, one live arrival at t=9
        assert [round(r.time, 6) for r in adoptions] == [6.0, 9.0]


class TestCancellationIsolation:
    def _moving_provider(self, duration):
        """User 0: adopts a corrected path at t=7 (cancels the old chain)."""
        path_a = PiecewisePath.stationary(Vec2(85, 105))
        path_b = PiecewisePath.stationary(Vec2(60, 60))
        return ScriptedProvider(
            [
                ProfileArrival(
                    time=0.0,
                    profile=MotionProfile(
                        path=path_a, ts=0.0, validity_s=duration, tg=0.0
                    ),
                ),
                ProfileArrival(
                    time=7.0,
                    profile=MotionProfile(
                        path=path_b, ts=7.0, validity_s=duration, tg=7.0
                    ),
                ),
            ]
        )

    def test_cancel_chain_only_touches_own_session(self, sim):
        duration = 30.0
        stack = MultiStack(
            sim,
            OVERLAPPING,
            duration=duration,
            providers=[self._moving_provider(duration), None],
        )
        stack.tracer.keep_kind("collector-released")
        stack.run()
        # the other user's session must ride through the cancellation storm
        delivered = {d.k for d in stack.gateway(1).deliveries}
        assert delivered == set(range(1, 16)), "bystander session lost periods"
        # every cancelled collector release belongs to user 0's query
        cancelled = [
            r
            for r in stack.tracer.records("collector-released")
            if r.get("reason") == "cancelled"
        ]
        assert cancelled, "profile change never cancelled anything"
        for record in cancelled:
            assert record.get("user") == 0
            assert record.get("query") == stack.specs[0].query_id

    def test_bystander_collectors_survive(self, sim):
        duration = 30.0
        stack = MultiStack(
            sim,
            OVERLAPPING,
            duration=duration,
            providers=[self._moving_provider(duration), None],
        )
        live = []
        sim.schedule_at(
            9.0,
            lambda: live.append(
                stack.protocol.live_collector_periods(stack.specs[1].session_key)
            ),
        )
        stack.run()
        assert live[0], "user 1's collectors were torn down by user 0's cancel"


class TestGarbageCollection:
    def test_all_sessions_drain_after_run(self, sim):
        stack = MultiStack(sim, OVERLAPPING)
        stack.run(until=stack.duration + 5.0)
        assert stack.protocol.tree_state_count() == 0
        assert stack.protocol.active_sessions() == []

    def test_per_session_counts_drain_independently(self, sim):
        """A session ending early GCs fully while the other still runs."""
        stack = MultiStack(sim, OVERLAPPING, starts=[0.0, 0.0], duration=30.0)
        # user 1's session is shorter: rebuild spec via lifetime in starts
        # (covered by staggered test); here check final drain per session.
        stack.run(until=stack.duration + 5.0)
        for spec in stack.specs:
            assert stack.protocol.tree_state_count(spec.session_key) == 0


class TestGatewayBegin:
    def test_started_count_tracks_origins(self, sim):
        """``begin()`` starts at once when ``start_s`` has passed, and at
        ``start_s`` — through one pending event — otherwise."""
        stack = MultiStack(sim, OVERLAPPING, starts=[0.0, 10.0])
        stack.tracer.keep_kind("profile-adopted")
        assert [g.start_pending for g in stack.gateways] == [False, True]
        sim.run(until=9.9)
        assert stack.gateway(1).current_profile is None
        sim.run(until=11.0)
        assert [g.start_pending for g in stack.gateways] == [False, False]
        adopted_at = [r.time for r in stack.tracer.records("profile-adopted")]
        assert adopted_at == [0.0, 10.0]

    def test_close_before_start_cancels_the_start(self, sim, monkeypatch):
        """A session closed before ``start_s`` never starts: its start
        event is cancelled, so it adopts no profile and sends no frame."""
        started = []
        start = MobiQueryGateway.start
        monkeypatch.setattr(
            MobiQueryGateway,
            "start",
            lambda gateway: (started.append(gateway.user_id), start(gateway)),
        )
        stack = MultiStack(sim, OVERLAPPING, starts=[0.0, 10.0])
        late = stack.gateway(1)
        proxy = late.proxy
        sim.run(until=5.0)
        pending = sim.pending_count
        late.close()
        assert not late.start_pending
        assert sim.pending_count == pending - 1
        stack.run()
        assert started == [0]
        assert late.current_profile is None and late.deliveries == []
        assert proxy.mac.frames_queued == 0
        assert {d.k for d in stack.gateway(0).deliveries} == set(range(1, 16))

    def test_past_origin_begin_mid_run_starts_cleanly(self, sim):
        """A session registered after its nominal origin must not fire the
        watchdog in the adoption instant (spurious superseding re-inject)."""
        duration = 40.0
        stack = MultiStack(sim, [OVERLAPPING[0]], duration=duration)
        stack.tracer.keep_kind("watchdog-reinject")
        path = PiecewisePath.stationary(OVERLAPPING[1])
        spec = QuerySpec(
            radius_m=100.0,
            period_s=2.0,
            freshness_s=1.0,
            lifetime_s=duration,
            user_id=1,
            start_s=0.0,
        )
        sim.schedule_at(
            20.0,
            lambda: stack.add_user(
                spec,
                path,
                FullKnowledgeProvider(path, duration),
                RandomStreams(5).stream("late"),
            ),
        )
        stack.run()
        # no watchdog panic in the first periods after the late start
        early_reinjects = [
            r.time
            for r in stack.tracer.records("watchdog-reinject")
            if 20.0 - 1e-9 <= r.time <= 23.0
        ]
        assert early_reinjects == []
        # and the late session serves the remaining periods
        late_ks = {d.k for d in stack.gateway(1).deliveries}
        assert late_ks >= set(range(12, 20))


class TestArrivalProcesses:
    def test_simultaneous(self):
        assert arrival_times(4) == [0.0, 0.0, 0.0, 0.0]

    def test_staggered(self):
        assert arrival_times(3, ARRIVAL_STAGGERED, spacing_s=2.5) == [0.0, 2.5, 5.0]

    def test_user_zero_always_at_origin(self):
        rng = RandomStreams(1).stream("arrivals")
        for process in (ARRIVAL_UNIFORM, ARRIVAL_POISSON):
            times = arrival_times(5, process, spacing_s=3.0, rng=rng)
            assert times[0] == 0.0
            assert times == sorted(times)

    def test_stochastic_processes_need_rng(self):
        with pytest.raises(ValueError):
            arrival_times(3, ARRIVAL_POISSON, spacing_s=1.0)

    def test_unknown_process_rejected(self):
        with pytest.raises(ValueError):
            arrival_times(3, "burst")

    def test_bad_num_users_rejected(self):
        with pytest.raises(ValueError):
            arrival_times(0)

    def test_negative_spacing_rejected(self):
        with pytest.raises(ValueError):
            arrival_times(2, ARRIVAL_STAGGERED, spacing_s=-1.0)

    def test_single_user_any_process(self):
        assert arrival_times(1, ARRIVAL_SIMULTANEOUS) == [0.0]


class TestExperimentRunnerIntegration:
    """The user-count dimension of a scenario's templates (small nets)."""

    @staticmethod
    def _spec(mode="jit", **template):
        from repro.api.scenarios import ScenarioSpec

        return ScenarioSpec(
            name="small", mode=mode, seed=3, duration_s=20.0,
            requests=({"radius_m": 80.0, **template},),
        )

    @staticmethod
    def _run(spec):
        """Run ``spec`` on a 60-node 250 m field (a world a spec's network
        keys cannot draw: they leave the region alone)."""
        from dataclasses import replace

        from repro.api import MobiQueryService
        from repro.api.scenarios import run_scenario
        from repro.geometry.shapes import Rect
        from repro.net.network import NetworkConfig

        world = replace(
            spec.world(), network=NetworkConfig(n_nodes=60, region=Rect.square(250.0))
        )
        return run_scenario(spec, backend=MobiQueryService(world))

    def test_multi_user_run_reports_all_sessions(self):
        result = self._run(
            self._spec(count=3, arrival=ARRIVAL_STAGGERED, spacing_s=2.5)
        )
        sessions = result.workload.sessions
        assert [s.user_id for s in sessions] == [0, 1, 2]
        assert [s.start_s for s in sessions] == [0.0, 2.5, 5.0]
        assert len(result.workload.success_ratios()) == 3

    def test_single_user_run_has_one_session(self):
        result = self._run(self._spec())
        (session,) = result.workload.sessions
        assert session.user_id == 0
        assert result.mean_success == session.success_ratio

    def test_np_baseline_multi_user(self):
        result = self._run(self._spec(mode="np", count=2, spacing_s=2.5))
        assert len(result.workload.sessions) == 2
        for session in result.workload.sessions:
            assert session.deliveries > 0

    def test_arrival_past_run_end_rejected(self, capsys):
        """``repro run`` refuses a start past the last serviceable period;
        a spec's expansion clamps it to that period instead."""
        from repro.api.scenarios import build_request_payloads
        from repro.cli import main

        argv = ["run", "--users", "2", "--spacing", "19.5", "--duration", "20"]
        assert main(argv) == 2
        assert "no serviceable period" in capsys.readouterr().err
        payloads = build_request_payloads(self._spec(count=2, spacing_s=19.5))
        assert [p["start_s"] for p in payloads] == [0.0, 18.0]

    def test_config_validation(self):
        with pytest.raises(ValueError, match="count must be an integer >= 1"):
            self._spec(count=0)
        with pytest.raises(ValueError, match="unknown arrival process"):
            self._spec(count=2, arrival="burst")
        with pytest.raises(ValueError, match="spacing must be >= 0"):
            self._spec(count=2, spacing_s=-1.0)
        with pytest.raises(ValueError, match="idle runs have no users"):
            self._spec(mode="idle", count=2)


class TestSpecSessionMath:
    def test_deadlines_shift_with_origin(self):
        spec = QuerySpec(period_s=2.0, lifetime_s=10.0, start_s=5.0)
        assert spec.deadline(1) == 7.0
        assert spec.deadline(5) == 15.0
        assert spec.end_s == 15.0
        assert spec.num_periods == 5

    def test_period_index_origin_aware(self):
        spec = QuerySpec(period_s=2.0, lifetime_s=10.0, start_s=5.0)
        assert spec.period_index(5.0) == 0
        assert spec.period_index(8.9) == 1
        assert spec.period_index(9.0) == 2

    def test_session_key(self):
        spec = QuerySpec(period_s=2.0, lifetime_s=10.0, user_id=3)
        assert spec.session_key == (3, spec.query_id)

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            QuerySpec(start_s=-1.0)
