"""Declarative scenario tests: registry, dict/JSON round-trip, CLI.

The scenario layer is plain data all the way down — these tests pin that
the built-in registry stays well-formed, that specs survive a JSON round
trip, that template expansion (count/spacing/path) produces the intended
requests, and that ``repro scenario <name>`` runs end to end.
"""

import json

import pytest

from repro.api.admission import PhaseAssignPolicy, make_admission_policy
from repro.api.scenarios import (
    SCENARIOS,
    ScenarioSpec,
    build_request_payloads,
    build_requests,
    get_scenario,
    list_scenarios,
    load_scenario_file,
    request_from_payload,
    run_scenario,
)
from repro.api.service import MobiQueryService, make_user_path
from repro.mobility.models import RandomDirectionConfig
from repro.sim.rng import RandomStreams
from repro.workload.arrivals import arrival_times
from repro.cli import main
from repro.core.query import Aggregation


class TestRegistry:
    def test_at_least_four_builtin_scenarios(self):
        assert len(SCENARIOS) >= 4
        for required in (
            "paper-default",
            "patrol-fleet",
            "rush-hour-burst",
            "heterogeneous-mix",
        ):
            assert required in SCENARIOS

    def test_every_builtin_expands_to_valid_requests(self):
        for spec in list_scenarios():
            requests = build_requests(spec)
            assert requests, spec.name
            for request in requests:
                assert request.period_s > 0
                assert request.freshness_s <= request.period_s
                # every start leaves at least one serviceable period
                assert request.start_s <= spec.duration_s - request.period_s

    def test_heterogeneous_mix_is_actually_heterogeneous(self):
        requests = build_requests(get_scenario("heterogeneous-mix"))
        assert len(requests) == 8
        assert len({r.period_s for r in requests}) >= 3
        assert len({r.radius_m for r in requests}) >= 4
        assert len({r.aggregation for r in requests}) >= 4

    def test_unknown_name_lists_the_catalogue(self):
        with pytest.raises(KeyError, match="paper-default"):
            get_scenario("does-not-exist")


class TestRoundTrip:
    def test_dict_round_trip(self):
        for spec in list_scenarios():
            assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_json_file_round_trip(self, tmp_path):
        spec = get_scenario("heterogeneous-mix")
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(spec.to_dict()))
        assert load_scenario_file(str(path)) == spec

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario key 'bogus'"):
            ScenarioSpec.from_dict({"name": "x", "bogus": 1})

    def test_admission_dict_builds_policies(self):
        policy = make_admission_policy(
            {"policy": "phase-assign", "slots": 8, "inner": {"policy": "per-area-cap", "max_overlapping": 2}}
        )
        assert isinstance(policy, PhaseAssignPolicy)
        assert policy.slots == 8
        assert policy.inner.max_overlapping == 2
        with pytest.raises(ValueError, match="unknown admission policy"):
            make_admission_policy({"policy": "vibes"})


class TestExpansion:
    def test_count_and_spacing_clone_requests(self):
        spec = ScenarioSpec(
            name="t",
            duration_s=60.0,
            requests=(
                {"count": 3, "spacing_s": 4.0, "period_s": 2.0, "start_s": 1.0},
            ),
        )
        requests = build_requests(spec)
        assert [r.start_s for r in requests] == [1.0, 5.0, 9.0]

    def test_aggregation_parsed_from_string(self):
        spec = ScenarioSpec(
            name="t", duration_s=20.0, requests=({"aggregation": "max"},)
        )
        (request,) = build_requests(spec)
        assert request.aggregation is Aggregation.MAX

    def test_patrol_path_built_from_waypoints(self):
        spec = ScenarioSpec(
            name="t",
            duration_s=20.0,
            requests=(
                {
                    "path": {
                        "kind": "patrol",
                        "waypoints": [[10, 10], [50, 10]],
                        "speed": 4.0,
                        "loops": 3,
                    }
                },
            ),
        )
        (request,) = build_requests(spec)
        assert request.path is not None
        assert request.path.position_at(0.0).x == 10.0

    def test_scaled_down_scenario_clamps_starts(self):
        """A quick-duration override keeps every user serviceable."""
        requests = build_requests(
            get_scenario("heterogeneous-mix").with_overrides(duration_s=10.0)
        )
        for request in requests:
            assert request.start_s <= 10.0 - request.period_s + 1e-9


class TestRunning:
    def test_paper_default_runs_and_scores(self):
        result = run_scenario(get_scenario("paper-default"), duration_s=12.0)
        assert result.admitted == 1
        assert result.rejected == 0
        assert result.workload.num_users == 1
        assert result.mean_success > 0.5
        assert result.events_executed > 0

    def test_rush_hour_burst_phases_are_spread(self):
        result = run_scenario(get_scenario("rush-hour-burst"), duration_s=16.0)
        starts = sorted(h.spec.start_s for h in result.handles)
        # 12 users over 4 phase slots of a 2 s period
        assert starts == sorted([0.0, 0.5, 1.0, 1.5] * 3)


class TestCli:
    def test_cli_runs_heterogeneous_mix(self, capsys):
        code = main(["scenario", "heterogeneous-mix", "--duration", "12"])
        out = capsys.readouterr().out
        assert code == 0
        assert "scenario=heterogeneous-mix" in out
        assert "admitted 8 / 8 sessions" in out
        assert "fleet mean success" in out

    def test_cli_list(self, capsys):
        assert main(["scenario", "--list"]) == 0
        out = capsys.readouterr().out
        for name in SCENARIOS:
            assert name in out

    def test_cli_unknown_scenario_is_clean_error(self, capsys):
        assert main(["scenario", "nope"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro scenario: error:")
        assert "\n" == err[-1] and err.count("\n") == 1  # one line

    def test_cli_file_scenario(self, tmp_path, capsys):
        spec = get_scenario("paper-default").with_overrides(duration_s=8.0)
        path = tmp_path / "mine.json"
        path.write_text(json.dumps(spec.to_dict()))
        assert main(["scenario", "--file", str(path)]) == 0
        assert "scenario=paper-default" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Strict spec validation: typo'd keys fail at load time, one clear line
# ----------------------------------------------------------------------
class TestStrictValidation:
    def test_unknown_request_template_key_rejected(self):
        with pytest.raises(ValueError, match="unknown request-template key 'perod_s'"):
            ScenarioSpec(name="x", requests=({"radius_m": 60.0, "perod_s": 2.0},))

    def test_unknown_request_key_rejected_from_dict(self):
        with pytest.raises(ValueError, match="request-template key"):
            ScenarioSpec.from_dict(
                {"name": "x", "requests": [{"raduis_m": 60.0}]}
            )

    def test_unknown_network_key_rejected(self):
        with pytest.raises(ValueError, match="unknown network key 'sleep_period'"):
            ScenarioSpec(name="x", network={"sleep_period": 9.0})

    @pytest.mark.parametrize(
        "key, value",
        [
            ("mac", {"cw_min": 8}),
            ("region", [0.0, 0.0, 450.0, 450.0]),
            ("power_model", {"tx_w": 1.4}),
            ("psm_offset_s", 1.0),
        ],
    )
    def test_network_key_the_world_cannot_honour_rejected_at_load(self, key, value):
        # JSON cannot carry a Rect or a config object, and the service
        # draws its own beacon phase: each is refused where it is read.
        with pytest.raises(ValueError, match=f"unknown network key '{key}'"):
            ScenarioSpec.from_dict({"name": "x", "network": {key: value}})

    def test_expansion_keys_still_accepted(self):
        spec = ScenarioSpec(
            name="x",
            requests=(
                {"count": 3, "spacing_s": 1.0, "aggregation": "max",
                 "path": {"kind": "random"}, "radius_m": 60.0},
            ),
        )
        assert len(build_requests(spec)) == 3

    def test_cli_file_with_bad_request_key_is_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"name": "bad", "requests": [{"radius_m": 60.0, "perod_s": 2.0}]}
        ))
        assert main(["scenario", "--file", str(path)]) == 2
        err = capsys.readouterr().err
        assert "unknown request-template key 'perod_s'" in err
        assert err.count("\n") == 1  # one line

    def test_shards_and_workers_validate(self):
        with pytest.raises(ValueError, match="shards must be >= 1"):
            ScenarioSpec(name="x", shards=0)
        # a JSON type is checked where plain data enters, by from_dict
        with pytest.raises(
            ValueError, match="scenario shards must be an integer, got 'two'"
        ):
            ScenarioSpec.from_dict({"name": "x", "shards": "two"})
        with pytest.raises(ValueError, match="workers must be >= 0"):
            ScenarioSpec(name="x", workers=-1)
        with pytest.raises(ValueError, match="unknown partitioner"):
            ScenarioSpec(name="x", partitioner="hexagons")

    def test_shards_round_trip_and_overrides(self):
        spec = ScenarioSpec(name="x", shards=4, workers=2,
                            partitioner="grid-stripe")
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec
        scaled = spec.with_overrides(shards=1, workers=0)
        assert scaled.shards == 1 and scaled.workers == 0
        assert scaled.partitioner == "grid-stripe"


# ----------------------------------------------------------------------
# The sharded backend behind the scenario surface
# ----------------------------------------------------------------------
class TestShardedScenarios:
    def test_build_backend_picks_the_right_plane(self):
        from repro.api import build_backend
        from repro.cluster import ClusterService

        single = build_backend(get_scenario("paper-default"))
        assert isinstance(single, MobiQueryService)
        sharded = build_backend(
            get_scenario("paper-default").with_overrides(shards=2)
        )
        assert isinstance(sharded, ClusterService)
        assert sharded.num_shards == 2

    def test_cluster_registry_scenario_runs_small(self):
        spec = get_scenario("cluster_scale_64users")
        assert spec.shards == 4 and spec.workers == 4
        # Scaled far down for test speed: 8 users, 16 s, in-process.
        small = ScenarioSpec.from_dict({
            **spec.to_dict(),
            "duration_s": 16.0,
            "workers": 0,
            "requests": [{**dict(spec.requests[0]), "count": 8}],
        })
        result = run_scenario(small)
        assert result.shards == 4
        assert result.admitted == 8
        assert result.frames_sent > 0

    def test_scenario_shards_override_matches_single_world(self):
        spec = get_scenario("paper-default").with_overrides(duration_s=10.0)
        single = run_scenario(spec)
        cluster = run_scenario(spec, shards=1)
        assert cluster.shards == 1
        assert cluster.frames_sent == single.frames_sent
        assert cluster.events_executed == single.events_executed


def _template_spec(template, **world):
    return ScenarioSpec.from_dict(
        {"name": "t", "duration_s": 20.0, "requests": [template], **world}
    )


class TestPathDicts:
    """Each path kind reads its own keys and refuses every other one."""

    def test_random_path_refuses_a_typo(self):
        path = {"kind": "random", "speed_rnage": [6, 10]}
        with pytest.raises(ValueError, match="unknown random path key 'speed_rnage'"):
            request_from_payload({"path": path})
        with pytest.raises(ValueError, match="unknown random path key 'speed_rnage'"):
            _template_spec({"path": path})

    def test_patrol_path_without_waypoints_is_a_value_error(self):
        with pytest.raises(ValueError, match="a patrol path needs 'waypoints'"):
            request_from_payload({"path": {"kind": "patrol", "speed": 4.0}})
        with pytest.raises(ValueError, match="unknown patrol path key 'speed_range'"):
            request_from_payload(
                {"path": {"kind": "patrol", "waypoints": [[0, 0], [9, 9]],
                          "speed_range": [1, 2]}}
            )

    def test_random_path_keys_set_the_walk(self):
        request = request_from_payload(
            {"path": {"kind": "random", "speed_range": [6, 10],
                      "change_interval_s": 30}}
        )
        assert request.path is None
        assert request.walk == RandomDirectionConfig(
            speed_range=(6.0, 10.0), change_interval_s=30.0
        )
        bare = request_from_payload({"path": {"kind": "random"}})
        assert bare.path is None and bare.walk is None

    def test_walk_is_synthesised_from_the_users_own_stream(self):
        """The service walks the request's model on the user's own
        ``mobility`` stream, exactly as ``make_user_path`` does."""
        spec = _template_spec(
            {"path": {"kind": "random", "speed_range": [6, 10]}, "count": 2}
        )
        result = run_scenario(spec)
        walk = RandomDirectionConfig(speed_range=(6.0, 10.0))
        for user_id, handle in enumerate(result.handles):
            expected = make_user_path(
                spec.world(), RandomStreams(spec.seed), user_id, walk
            )
            assert handle.path.waypoints == expected.waypoints
        first, second = result.handles[0].path.waypoints[:2]
        speed = first.position.distance_to(second.position) / (
            second.time - first.time
        )
        assert 6.0 <= speed <= 10.0


class TestWorldValidation:
    """A spec refuses, at load, a world no service can build."""

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown mode 'bogus'"):
            ScenarioSpec.from_dict({"name": "x", "mode": "bogus"})

    def test_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -3"):
            ScenarioSpec.from_dict({"name": "x", "seed": -3})

    def test_idle_world_with_users(self):
        with pytest.raises(ValueError, match="idle runs have no users to multiply"):
            ScenarioSpec.from_dict(
                {"name": "x", "mode": "idle", "requests": [{"count": 2}]}
            )

    def test_duration_shorter_than_a_period(self):
        with pytest.raises(ValueError, match="at least one query period"):
            _template_spec({"period_s": 30.0})

    def test_ablation_flags_are_booleans(self):
        with pytest.raises(ValueError, match="parent_upgrade must be true or false"):
            ScenarioSpec.from_dict({"name": "x", "parent_upgrade": 1})
        spec = ScenarioSpec.from_dict({"name": "x", "redeliver_setups": False})
        assert spec.world().redeliver_setups is False
        # written only when they ablate
        assert spec.to_dict()["redeliver_setups"] is False
        assert "parent_upgrade" not in spec.to_dict()
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec


class TestArrivals:
    def test_stochastic_arrivals_draw_the_seeds_arrivals_stream(self):
        """Starts equal ``arrival_times`` on a fresh ``arrivals`` stream of
        the spec's seed, offset by the template's ``start_s``."""
        for process in ("uniform", "poisson"):
            spec = _template_spec(
                {"count": 4, "arrival": process, "spacing_s": 2.0, "start_s": 1.0},
                seed=9,
            )
            starts = arrival_times(
                4, process, spacing_s=2.0, rng=RandomStreams(9).stream("arrivals")
            )
            assert [p["start_s"] for p in build_request_payloads(spec)] == [
                1.0 + s for s in starts
            ]

    def test_simultaneous_arrivals_ignore_spacing(self):
        spec = _template_spec({"count": 3, "arrival": "simultaneous", "spacing_s": 5.0})
        assert [p["start_s"] for p in build_request_payloads(spec)] == [0.0] * 3

    @pytest.mark.parametrize(
        "template",
        [{"count": 0}, {"count": 2.5}, {"count": True}, {"count": 2, "spacing_s": -1}],
        ids=["zero", "float", "bool", "negative-spacing"],
    )
    def test_clone_keys_checked_at_load(self, template):
        with pytest.raises(ValueError, match="count must be an integer|spacing must"):
            _template_spec(template)

    def test_unknown_arrival_refused_at_load(self):
        with pytest.raises(ValueError, match="unknown arrival process 'burst'"):
            _template_spec({"count": 2, "arrival": "burst"})
