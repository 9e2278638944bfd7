"""The deterministic fault plane: plans, injection, recovery, the sweep.

Covers the four layers of ``repro.faults``:

* **Plans** — strict validation (unknown keys rejected at every nesting
  level with a one-line error), value checks, dict round-trips.
* **Injection** — crash/recover semantics (forced sleep + blocked wake),
  region blackouts, degradation windows, out-of-shard crash ids skipped.
* **Recovery** — a blackout over the query area triggers collector
  re-election, the session survives, and unrecoverable periods surface
  as ``SessionResult.degraded_periods``.
* **Lifecycle** — ``ServiceClosedError`` on submit/stream/score after
  ``close()`` on both backends, and the worker-kill replay path.
* **Sweep** — grid expansion, the metamorphic invariant checks, and the
  CLI's exit codes (2 = bad spec, 3 = violated invariant).
"""

import json

import pytest

from repro.api import MobiQueryService, QueryRequest, ServiceClosedError
from repro.api.scenarios import ScenarioSpec
from repro.cli import main as cli_main
from repro.cluster import ClusterService
from repro.api.config import ExperimentConfig
from repro.faults import (
    FaultInjector,
    FaultPlan,
    NodeCrash,
    RadioDegradation,
    RegionBlackout,
    WorkerKill,
    load_fault_file,
)
from repro.faults.sweep import (
    ARRIVAL_BURST,
    SweepAxes,
    build_cells,
    check_invariants,
    plan_for_intensity,
)
from repro.net.network import NetworkConfig
from repro.sim.trace import Tracer

from .test_cluster_service import small_config, submit_fleet


def _tiny_config(duration_s: float = 30.0, seed: int = 1) -> ExperimentConfig:
    return ExperimentConfig(
        mode="jit",
        seed=seed,
        duration_s=duration_s,
    )


# ----------------------------------------------------------------------
# Plans: strict validation + round trips
# ----------------------------------------------------------------------
class TestFaultPlanValidation:
    def test_unknown_top_level_key_is_named(self):
        with pytest.raises(ValueError, match="unknown fault plan key 'blackoutz'"):
            FaultPlan.from_dict({"blackoutz": []})

    @pytest.mark.parametrize(
        "kind,entry,what",
        [
            ("crashes", {"node_id": 1, "at_s": 1.0, "when": 2}, "fault crash"),
            (
                "blackouts",
                {"x": 0, "y": 0, "radius_m": 5, "at_s": 1, "duration_s": 1, "r": 2},
                "fault blackout",
            ),
            (
                "degradations",
                {"at_s": 1, "duration_s": 1, "corruption_prob": 0.5, "p": 1},
                "fault degradation",
            ),
            ("worker_kills", {"shard": 0, "pid": 7}, "fault worker_kill"),
        ],
    )
    def test_unknown_nested_key_is_named(self, kind, entry, what):
        with pytest.raises(ValueError, match=f"unknown {what} key"):
            FaultPlan.from_dict({kind: [entry]})

    @pytest.mark.parametrize(
        "bad",
        [
            {"crashes": [{"node_id": -1, "at_s": 0.0}]},
            {"crashes": [{"node_id": 1, "at_s": 5.0, "recover_s": 5.0}]},
            {"blackouts": [{"x": 0, "y": 0, "radius_m": 0, "at_s": 0, "duration_s": 1}]},
            {"degradations": [{"at_s": 0, "duration_s": 1, "corruption_prob": 1.5}]},
            {"worker_kills": [{"shard": -2}]},
        ],
    )
    def test_bad_values_rejected(self, bad):
        with pytest.raises(ValueError):
            FaultPlan.from_dict(bad)

    def test_round_trip(self):
        plan = FaultPlan(
            crashes=(NodeCrash(node_id=3, at_s=1.0, recover_s=4.0),),
            blackouts=(RegionBlackout(x=10, y=20, radius_m=30, at_s=2, duration_s=5),),
            degradations=(RadioDegradation(at_s=1, duration_s=2, corruption_prob=0.4),),
            worker_kills=(WorkerKill(shard=1),),
        )
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_empty_and_world_empty(self):
        assert FaultPlan().empty and FaultPlan().world_empty
        kills_only = FaultPlan(worker_kills=(WorkerKill(shard=0),))
        assert not kills_only.empty
        assert kills_only.world_empty  # touches the pool, not the world
        crash = FaultPlan(crashes=(NodeCrash(node_id=1, at_s=1.0),))
        assert not crash.empty and not crash.world_empty

    def test_load_fault_file_rejects_non_object(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="must hold a JSON object"):
            load_fault_file(str(path))

    def test_scenario_spec_validates_faults_at_load(self):
        with pytest.raises(ValueError, match="unknown fault plan key"):
            ScenarioSpec(name="x", faults={"oops": []})


# ----------------------------------------------------------------------
# Injection semantics
# ----------------------------------------------------------------------
class TestInjection:
    def test_crash_blocks_wake_until_recovery(self):
        plan = FaultPlan.from_dict(
            {"crashes": [{"node_id": 5, "at_s": 2.0, "recover_s": 6.0}]}
        )
        service = MobiQueryService(_tiny_config(), faults=plan)
        node = service.network.node_by_id(5)
        service.advance(3.0)
        assert node.crashed
        assert node.radio.is_sleeping
        node.radio.wake()  # protocol/PSM wake attempts are no-ops
        assert node.radio.is_sleeping
        service.advance(7.0)
        assert not node.crashed
        assert "wake" not in node.radio.__dict__  # shadow removed

    def test_crash_id_outside_world_is_skipped(self):
        plan = FaultPlan.from_dict({"crashes": [{"node_id": 10_000, "at_s": 1.0}]})
        service = MobiQueryService(_tiny_config(), faults=plan)
        service.advance(2.0)  # would raise inside node_by_id if scheduled

    def test_blackout_recovers_exactly_its_victims(self):
        tracer = Tracer(keep=["blackout-start", "node-crashed", "node-recovered"])
        plan = FaultPlan.from_dict(
            {"blackouts": [{"x": 225, "y": 225, "radius_m": 120,
                            "at_s": 2.0, "duration_s": 4.0}]}
        )
        service = MobiQueryService(_tiny_config(), tracer=tracer, faults=plan)
        service.advance(10.0)
        (start,) = tracer.records("blackout-start")
        assert start["victims"] > 0
        assert tracer.counts["node-crashed"] == start["victims"]
        assert tracer.counts["node-recovered"] == start["victims"]

    def test_degradation_window_installs_and_removes_jam_hook(self):
        plan = FaultPlan.from_dict(
            {"degradations": [{"at_s": 1.0, "duration_s": 2.0,
                               "corruption_prob": 0.5}]}
        )
        service = MobiQueryService(_tiny_config(), faults=plan)
        channel = service.network.channel
        assert channel.fault_jam is None
        service.advance(1.5)
        assert channel.fault_jam is not None
        service.advance(3.5)
        assert channel.fault_jam is None

    def test_empty_plan_builds_no_injector(self):
        service = MobiQueryService(_tiny_config(), faults=FaultPlan())
        assert service.fault_injector is None
        kills_only = FaultPlan(worker_kills=(WorkerKill(shard=0),))
        service = MobiQueryService(_tiny_config(), faults=kills_only)
        assert service.fault_injector is None

    def test_injector_draws_only_from_faults_stream(self):
        """A plan without degradations never touches the faults RNG."""
        plan = FaultPlan.from_dict(
            {"crashes": [{"node_id": 5, "at_s": 2.0, "recover_s": 4.0}]}
        )
        service = MobiQueryService(_tiny_config(), faults=plan)
        probe = service.streams.stream("faults")  # the injector's generator
        before = probe.bit_generator.state
        service.advance(6.0)
        assert probe.bit_generator.state == before


# ----------------------------------------------------------------------
# Recovery: re-election + degraded accounting
# ----------------------------------------------------------------------
class TestRecovery:
    def test_blackout_over_query_area_reelects_and_marks_degraded(self):
        tracer = Tracer(
            keep=["node-crashed", "node-recovered", "collector-reelected"]
        )
        plan = FaultPlan.from_dict(
            {"blackouts": [{"x": 60, "y": 60, "radius_m": 90,
                            "at_s": 8.0, "duration_s": 6.0}]}
        )
        service = MobiQueryService(_tiny_config(), tracer=tracer, faults=plan)
        service.submit(
            QueryRequest(radius_m=60.0, period_s=2.0, freshness_s=1.0)
        ).require_admitted()
        result = service.close()
        (session,) = result.sessions
        assert tracer.counts["node-crashed"] > 0
        assert tracer.counts["node-recovered"] == tracer.counts["node-crashed"]
        assert tracer.counts["collector-reelected"] > 0
        # Unrecoverable periods are *marked*, not silently dropped.
        assert session.degraded_periods > 0
        # The session survives the outage: it still delivers results.
        assert session.deliveries > 0

    def test_fault_free_run_has_no_degraded_periods(self):
        service = MobiQueryService(_tiny_config())
        service.submit(
            QueryRequest(radius_m=60.0, period_s=2.0, freshness_s=1.0)
        ).require_admitted()
        result = service.close()
        assert result.sessions[0].degraded_periods == 0


# ----------------------------------------------------------------------
# Lifecycle: typed errors after close()
# ----------------------------------------------------------------------
class TestServiceClosedErrors:
    def test_is_a_value_error(self):
        assert issubclass(ServiceClosedError, ValueError)

    def test_submit_after_close_single_world(self):
        service = MobiQueryService(small_config())
        submit_fleet(service, 1)
        service.close()
        with pytest.raises(ServiceClosedError, match="closed service"):
            submit_fleet(service, 1)

    def test_submit_after_horizon_names_the_horizon(self):
        service = MobiQueryService(small_config())
        submit_fleet(service, 1)
        service.run()
        with pytest.raises(ServiceClosedError, match="horizon has passed"):
            submit_fleet(service, 1)

    def test_handle_scoring_after_close_single_world(self):
        service = MobiQueryService(small_config())
        (handle,) = submit_fleet(service, 1)
        service.close()
        with pytest.raises(ServiceClosedError, match="handle of a closed service"):
            handle.result()
        with pytest.raises(ServiceClosedError, match="handle of a closed service"):
            list(handle.results())

    def test_handle_scoring_after_close_cluster(self):
        cluster = ClusterService(small_config(), shards=2)
        (handle,) = submit_fleet(cluster, 1)
        cluster.close()
        with pytest.raises(ServiceClosedError, match="handle of a closed service"):
            handle.result()

    def test_cluster_submit_after_close(self):
        cluster = ClusterService(small_config(), shards=2)
        submit_fleet(cluster, 1)
        cluster.close()
        with pytest.raises(ServiceClosedError, match="closed cluster"):
            submit_fleet(cluster, 1)


# ----------------------------------------------------------------------
# Worker kill/restart (cluster pool path)
# ----------------------------------------------------------------------
class TestWorkerKillReplay:
    def test_killed_shard_replays_bit_identically(self):
        config = small_config()
        baseline = ClusterService(config, shards=2, workers=2)
        submit_fleet(baseline, 4)
        base_workload = baseline.close()

        plan = FaultPlan(worker_kills=(WorkerKill(shard=0),))
        killed = ClusterService(config, shards=2, workers=2, faults=plan)
        submit_fleet(killed, 4)
        workload = killed.close()

        assert [
            (s.user_id, s.success_ratio, s.deliveries)
            for s in workload.sessions
        ] == [
            (s.user_id, s.success_ratio, s.deliveries)
            for s in base_workload.sessions
        ]
        assert killed.stats().frames_sent == baseline.stats().frames_sent
        if killed.parallel_used:
            counts = killed.services[0].tracer.counts
            assert counts["worker-killed"] == 1
            assert counts["worker-restarted"] == 1

    def test_kill_of_nonexistent_shard_is_ignored(self):
        plan = FaultPlan(worker_kills=(WorkerKill(shard=9),))
        cluster = ClusterService(
            small_config(), shards=2, workers=2, faults=plan
        )
        submit_fleet(cluster, 2)
        workload = cluster.close()
        assert len(workload.sessions) == 2


# ----------------------------------------------------------------------
# The sweep: grid expansion + invariant checks
# ----------------------------------------------------------------------
class TestSweepAxes:
    def test_unknown_axis_key_is_named(self):
        with pytest.raises(ValueError, match="unknown sweep-axis key 'userz'"):
            SweepAxes.from_dict({"userz": [4]})

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError, match="intensity must be in"):
            SweepAxes(intensities=(1.5,))
        with pytest.raises(ValueError, match="unknown sweep arrival"):
            SweepAxes(arrivals=("poisson",))
        with pytest.raises(ValueError, match="must not be empty"):
            SweepAxes(users=())

    def test_cell_count(self):
        axes = SweepAxes(users=(2, 4), shards=(1,), intensities=(0.0, 1.0),
                         arrivals=("staggered",))
        assert axes.cell_count() == 4


class TestSweepCells:
    def _base(self) -> ScenarioSpec:
        return ScenarioSpec(
            name="mini",
            duration_s=24.0,
            requests=({"radius_m": 50.0, "period_s": 2.0, "freshness_s": 1.0,
                       "count": 2, "spacing_s": 1.5},),
        )

    def test_grid_expansion_and_burst_spacing(self):
        axes = SweepAxes(users=(2, 3), shards=(1,), intensities=(0.0, 1.0),
                         arrivals=("staggered", "burst"))
        cells = build_cells(self._base(), axes)
        assert len(cells) == axes.cell_count() == 8
        for cell in cells:
            (template,) = cell.payload["requests"]
            assert template["count"] == cell.users
            if cell.arrival == ARRIVAL_BURST:
                assert template["spacing_s"] == 0.0
            else:
                assert template["spacing_s"] == 1.5
            # every payload re-validates as a full spec
            ScenarioSpec.from_dict(cell.payload)

    def test_intensity_zero_is_the_empty_plan(self):
        base = self._base()
        assert plan_for_intensity(base, 0.0) == {}
        mild = plan_for_intensity(base, 0.5)
        severe = plan_for_intensity(base, 1.0)
        assert mild["blackouts"][0]["radius_m"] < severe["blackouts"][0]["radius_m"]
        assert (mild["degradations"][0]["corruption_prob"]
                < severe["degradations"][0]["corruption_prob"])
        # pure function: same inputs, same plan
        assert plan_for_intensity(base, 0.5) == mild

    def test_base_faults_merge_with_derived(self):
        base = ScenarioSpec(
            name="mini",
            duration_s=24.0,
            faults={"crashes": [{"node_id": 3, "at_s": 1.0}]},
            requests=({"radius_m": 50.0, "count": 2},),
        )
        cells = build_cells(base, SweepAxes(users=(2,), shards=(1,),
                                            intensities=(1.0,),
                                            arrivals=("staggered",)))
        faults = cells[0].payload["faults"]
        assert faults["crashes"] and faults["blackouts"] and faults["degradations"]


class TestSweepInvariants:
    def _row(self, **over):
        row = {
            "users": 2, "shards": 1, "intensity": 0.0, "arrival": "staggered",
            "mean_success": 0.9, "min_success": 0.8, "degraded_periods": 0,
        }
        row.update(over)
        return row

    def test_clean_grid_passes(self):
        rows = [self._row(), self._row(intensity=1.0, mean_success=0.5)]
        assert check_invariants(rows) == []

    def test_monotonicity_violation_is_named(self):
        rows = [
            self._row(mean_success=0.5),
            self._row(intensity=1.0, mean_success=0.9),
        ]
        (violation,) = check_invariants(rows)
        assert violation.startswith("fault-monotonicity:")

    @pytest.mark.parametrize(
        "key, values, shown",
        [
            ("accuracy", ("exact", "coarse"), ("accuracy=exact", "accuracy=coarse")),
            ("radio_range", (90.0, 120.0), ("radio_range=90", "radio_range=120")),
        ],
    )
    def test_violations_name_every_coordinate(self, key, values, shown):
        """Two groups that differ only in ``key`` give two messages a
        reader can tell apart: each names its own ``key`` coordinate."""
        rows = [
            self._row(**{key: value}, **over)
            for value in values
            for over in ({"mean_success": 0.5},
                         {"intensity": 1.0, "mean_success": 0.9})
        ]
        violations = check_invariants(rows)
        assert len(violations) == 2 and violations[0] != violations[1]
        for coordinate in shown:
            (violation,) = [v for v in violations if coordinate in v]
            assert violation.startswith("fault-monotonicity:")

    def test_small_wobble_within_tolerance_passes(self):
        rows = [
            self._row(mean_success=0.900),
            self._row(intensity=1.0, mean_success=0.905),
        ]
        assert check_invariants(rows) == []

    def test_identity_and_leak_violations_are_named(self):
        rows = [
            self._row(identity_ok=False),
            self._row(intensity=0.5, leak_total=2,
                      leaks={"tree_states": 2, "collectors": 0}),
        ]
        violations = check_invariants(rows)
        kinds = {v.split(":")[0] for v in violations}
        assert kinds == {"shards1-identity", "churn-no-leak"}


# ----------------------------------------------------------------------
# CLI exit codes (strict-validation parity)
# ----------------------------------------------------------------------
class TestCliExitCodes:
    def test_run_with_unknown_fault_key_exits_2(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"blackoutz": []}))
        code = cli_main(["run", "--duration", "10", "--faults", str(plan)])
        assert code == 2
        assert "unknown fault plan key 'blackoutz'" in capsys.readouterr().err

    def test_run_with_missing_fault_file_exits_2(self, capsys):
        code = cli_main(["run", "--faults", "/nonexistent/plan.json"])
        assert code == 2
        assert "repro run: error:" in capsys.readouterr().err

    def test_sweep_with_unknown_axis_key_exits_2(self, tmp_path, capsys):
        axes = tmp_path / "axes.json"
        axes.write_text(json.dumps({"userz": [2]}))
        code = cli_main(["sweep", "paper-default", "--axes", str(axes)])
        assert code == 2
        assert "unknown sweep-axis key 'userz'" in capsys.readouterr().err

    def test_sweep_with_bad_axis_value_exits_2(self, capsys):
        code = cli_main(["sweep", "paper-default", "--users", "0"])
        assert code == 2
        assert "users must be >= 1" in capsys.readouterr().err

    def test_sweep_without_base_exits_2(self, capsys):
        code = cli_main(["sweep"])
        assert code == 2
        assert "repro sweep: error:" in capsys.readouterr().err

    def test_scenario_file_with_unknown_fault_key_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "name": "bad",
            "requests": [{"radius_m": 50.0}],
            "faults": {"crashes": [{"node_id": 1, "at_s": 1.0, "boom": True}]},
        }))
        code = cli_main(["scenario", "--file", str(spec)])
        assert code == 2
        assert "unknown fault crash key 'boom'" in capsys.readouterr().err


# ----------------------------------------------------------------------
# The admission axis (sweep) and the admission-no-harm invariant
# ----------------------------------------------------------------------
class TestAdmissionAxis:
    def _base(self) -> ScenarioSpec:
        return ScenarioSpec(
            name="mini",
            duration_s=24.0,
            requests=({"radius_m": 50.0, "period_s": 2.0, "freshness_s": 1.0,
                       "count": 2, "spacing_s": 1.5},),
        )

    def test_unknown_admission_name_is_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep admission"):
            SweepAxes(admissions=("vip-only",))
        with pytest.raises(ValueError, match="must not be empty"):
            SweepAxes(admissions=())

    def test_from_dict_accepts_admissions(self):
        axes = SweepAxes.from_dict(
            {"users": [2], "shards": [1], "intensities": [0.0],
             "arrivals": ["staggered"],
             "admissions": ["accept-all", "per-area-cap", "phase-assign"]}
        )
        assert axes.admissions == ("accept-all", "per-area-cap",
                                   "phase-assign")
        assert axes.cell_count() == 3

    def test_build_cells_expands_admission_configs(self):
        axes = SweepAxes(users=(2,), shards=(1,), intensities=(0.0,),
                         arrivals=("staggered",),
                         admissions=("accept-all", "per-area-cap",
                                     "phase-assign"))
        cells = build_cells(self._base(), axes)
        assert [c.admission for c in cells] == [
            "accept-all", "per-area-cap", "phase-assign"
        ]
        by_name = {c.admission: c for c in cells}
        assert by_name["accept-all"].payload["admission"] == {}
        assert by_name["per-area-cap"].payload["admission"] == {
            "policy": "per-area-cap", "max_overlapping": 3
        }
        assert by_name["phase-assign"].payload["admission"] == {
            "policy": "phase-assign", "slots": 4
        }
        for cell in cells:
            assert cell.payload["name"].endswith(f".{cell.admission}")
            ScenarioSpec.from_dict(cell.payload)

    def _row(self, **over):
        row = {
            "users": 2, "shards": 1, "intensity": 0.0, "arrival": "staggered",
            "admission": "accept-all", "rejected": 0,
            "mean_success": 0.9, "min_success": 0.8, "degraded_periods": 0,
        }
        row.update(over)
        return row

    def test_admission_no_harm_violation_is_named(self):
        rows = [
            self._row(),
            self._row(admission="per-area-cap", rejected=1,
                      mean_success=0.7),
        ]
        (violation,) = check_invariants(rows)
        assert violation.startswith("admission-no-harm:")
        assert "per-area-cap" in violation

    def test_admission_no_harm_within_tolerance_passes(self):
        rows = [
            self._row(mean_success=0.900),
            self._row(admission="per-area-cap", rejected=1,
                      mean_success=0.895),
        ]
        assert check_invariants(rows) == []

    def test_admission_without_rejections_is_not_judged(self):
        # A policy that rejected nobody ran the same workload; its score
        # may wobble freely without implicating admission control.
        rows = [
            self._row(),
            self._row(admission="phase-assign", rejected=0,
                      mean_success=0.2),
        ]
        assert check_invariants(rows) == []

    def test_small_real_grid_carries_admission_and_passes(self):
        from repro.faults.sweep import build_cells as bc, run_sweep_cell

        axes = SweepAxes(users=(2,), shards=(1,), intensities=(0.0,),
                         arrivals=("staggered",),
                         admissions=("accept-all", "phase-assign"))
        base = ScenarioSpec(
            name="mini",
            duration_s=16.0,
            requests=({"radius_m": 60.0, "period_s": 2.0, "freshness_s": 1.0,
                       "count": 2, "spacing_s": 1.0},),
        )
        rows = [run_sweep_cell(cell) for cell in bc(base, axes)]
        assert [r["admission"] for r in rows] == ["accept-all",
                                                 "phase-assign"]
        assert all("rejected" in r for r in rows)
        assert check_invariants(rows) == []
