"""Tests for the experiment harness: presets and short end-to-end runs."""

import pytest

from repro.api.config import (
    MODE_GREEDY,
    MODE_IDLE,
    MODE_JIT,
    MODE_NP,
    ExperimentConfig,
)
from repro.api.requests import QueryRequest
from repro.api.scenarios import (
    ScenarioSpec,
    build_requests,
    build_service,
    request_from_payload,
    run_scenario,
)
from repro.core.metrics import StorageTracker
from repro.experiments.figures import paper_section62_config, paper_section63_config
from repro.experiments.runner import mean_success_ratio, run_replications


class TestConfig:
    def test_defaults_match_paper(self):
        assert ExperimentConfig().network.n_nodes == 200
        request = QueryRequest()
        assert request.radius_m == 150.0
        assert request.period_s == 2.0
        assert request.freshness_s == 1.0

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(mode="bogus")

    def test_profile_mode_validation(self):
        with pytest.raises(ValueError, match="unknown profile mode"):
            request_from_payload({"profile_mode": "bogus"})

    def test_sweep_helpers(self):
        spec = paper_section62_config(sleep_period_s=15.0)
        assert spec.world().network.sleep_period_s == 15.0
        assert spec.with_overrides(seed=9).seed == 9

    def test_advance_time_helper_sets_planner(self):
        (request,) = build_requests(paper_section63_config(advance_time_s=6.0))
        assert request.profile_mode == "planner"
        assert request.advance_time_s == 6.0

    def test_gps_error_helper_sets_predictor(self):
        (request,) = build_requests(paper_section63_config(gps_error_m=10.0))
        assert request.profile_mode == "predictor"
        assert request.gps_error_m == 10.0

    def test_section62_preset(self):
        spec = paper_section62_config(mode=MODE_GREEDY, sleep_period_s=15.0)
        assert spec.mode == MODE_GREEDY
        assert spec.world().network.sleep_period_s == 15.0
        (request,) = build_requests(spec)
        assert request.walk.change_interval_s == 50.0
        assert spec.duration_s == 400.0

    def test_section63_preset_planner(self):
        (request,) = build_requests(paper_section63_config(advance_time_s=6.0))
        assert request.profile_mode == "planner"
        assert request.walk.change_interval_s == 70.0

    def test_section63_preset_predictor(self):
        (request,) = build_requests(paper_section63_config(gps_error_m=10.0))
        assert request.profile_mode == "predictor"


def quick(mode, seed=5):
    """One default user for 40 s (no user in an idle world)."""
    return ScenarioSpec(
        name="quick", mode=mode, seed=seed, duration_s=40.0,
        requests=() if mode == MODE_IDLE else ({},),
    )


def metrics(result):
    (session,) = result.workload.sessions
    return session.metrics


def prefetch_length(spec):
    """Section 5.2's storage reader on ``spec``'s world."""
    service = build_service(spec)
    storage = StorageTracker(service.tracer)
    run_scenario(spec, backend=service)
    return storage.max_prefetch_length


class TestShortRuns:
    def test_jit_run_produces_metrics(self):
        result = run_scenario(quick(MODE_JIT))
        assert metrics(result).num_periods == 20
        assert result.backbone_size > 0
        assert result.frames_sent > 0

    def test_jit_beats_np(self):
        jit = run_scenario(quick(MODE_JIT))
        np_ = run_scenario(quick(MODE_NP))
        assert metrics(jit).mean_fidelity() > metrics(np_).mean_fidelity()
        assert jit.mean_success >= np_.mean_success

    def test_greedy_stores_more_than_jit(self):
        assert prefetch_length(quick(MODE_GREEDY)) > prefetch_length(quick(MODE_JIT))

    def test_idle_run_has_no_metrics(self):
        result = run_scenario(quick(MODE_IDLE))
        assert result.workload.sessions == []
        assert result.mean_success == 0.0
        assert result.power.mean_sleeper_power_w > 0.1

    def test_reproducible_given_seed(self):
        a = run_scenario(quick(MODE_JIT))
        b = run_scenario(quick(MODE_JIT))
        assert metrics(a).fidelity_series() == metrics(b).fidelity_series()
        assert a.frames_sent == b.frames_sent

    def test_different_seeds_differ(self):
        a = run_scenario(quick(MODE_JIT, seed=5))
        b = run_scenario(quick(MODE_JIT, seed=6))
        assert a.frames_sent != b.frames_sent

    def test_run_replications(self):
        spec = quick(MODE_JIT).with_overrides(duration_s=30.0)
        results = run_replications(spec, seeds=[1, 2])
        assert len(results) == 2
        assert results[0].scenario.seed == 1
        assert 0.0 <= mean_success_ratio(results) <= 1.0

    def test_mean_success_ratio_empty(self):
        assert mean_success_ratio([]) == 0.0
