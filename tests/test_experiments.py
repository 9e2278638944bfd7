"""Tests for the experiment harness: configs and short end-to-end runs."""

import pytest

from repro.api.config import (
    MODE_GREEDY,
    MODE_IDLE,
    MODE_JIT,
    MODE_NP,
    ExperimentConfig,
    paper_section62_config,
    paper_section63_config,
)
from repro.experiments.runner import (
    mean_success_ratio,
    run_experiment,
    run_replications,
)


class TestConfig:
    def test_defaults_match_paper(self):
        config = ExperimentConfig()
        assert config.network.n_nodes == 200
        assert config.query.radius_m == 150.0
        assert config.query.period_s == 2.0
        assert config.query.freshness_s == 1.0

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(mode="bogus")

    def test_profile_mode_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(profile_mode="bogus")

    def test_sweep_helpers(self):
        config = ExperimentConfig()
        assert config.with_sleep_period(15.0).network.sleep_period_s == 15.0
        assert config.with_seed(9).seed == 9

    def test_advance_time_helper_sets_planner(self):
        config = ExperimentConfig().with_advance_time(6.0)
        assert config.profile_mode == "planner"
        assert config.advance_time_s == 6.0

    def test_gps_error_helper_sets_predictor(self):
        config = ExperimentConfig().with_gps_error(10.0)
        assert config.profile_mode == "predictor"
        assert config.gps_error_m == 10.0

    def test_section62_preset(self):
        config = paper_section62_config(mode=MODE_GREEDY, sleep_period_s=15.0)
        assert config.mode == MODE_GREEDY
        assert config.network.sleep_period_s == 15.0
        assert config.mobility.change_interval_s == 50.0
        assert config.duration_s == 400.0

    def test_section63_preset_planner(self):
        config = paper_section63_config(advance_time_s=6.0)
        assert config.profile_mode == "planner"
        assert config.mobility.change_interval_s == 70.0

    def test_section63_preset_predictor(self):
        config = paper_section63_config(gps_error_m=10.0)
        assert config.profile_mode == "predictor"


QUICK = dict(seed=5, duration_s=40.0)


class TestShortRuns:
    def test_jit_run_produces_metrics(self):
        result = run_experiment(ExperimentConfig(mode=MODE_JIT, **QUICK))
        assert result.metrics is not None
        assert result.metrics.num_periods == 20
        assert result.backbone_size > 0
        assert result.frames_sent > 0

    def test_jit_beats_np(self):
        jit = run_experiment(ExperimentConfig(mode=MODE_JIT, **QUICK))
        np_ = run_experiment(ExperimentConfig(mode=MODE_NP, **QUICK))
        assert jit.metrics.mean_fidelity() > np_.metrics.mean_fidelity()
        assert jit.success_ratio >= np_.success_ratio

    def test_greedy_stores_more_than_jit(self):
        jit = run_experiment(ExperimentConfig(mode=MODE_JIT, **QUICK))
        greedy = run_experiment(ExperimentConfig(mode=MODE_GREEDY, **QUICK))
        assert greedy.max_prefetch_length > jit.max_prefetch_length

    def test_idle_run_has_no_metrics(self):
        result = run_experiment(ExperimentConfig(mode=MODE_IDLE, **QUICK))
        assert result.metrics is None
        assert result.success_ratio == 0.0
        assert result.power.mean_sleeper_power_w > 0.1

    def test_reproducible_given_seed(self):
        a = run_experiment(ExperimentConfig(mode=MODE_JIT, **QUICK))
        b = run_experiment(ExperimentConfig(mode=MODE_JIT, **QUICK))
        assert a.metrics.fidelity_series() == b.metrics.fidelity_series()
        assert a.frames_sent == b.frames_sent

    def test_different_seeds_differ(self):
        a = run_experiment(ExperimentConfig(mode=MODE_JIT, seed=5, duration_s=40.0))
        b = run_experiment(ExperimentConfig(mode=MODE_JIT, seed=6, duration_s=40.0))
        assert a.frames_sent != b.frames_sent

    def test_run_replications(self):
        results = run_replications(
            ExperimentConfig(mode=MODE_JIT, duration_s=30.0), seeds=[1, 2]
        )
        assert len(results) == 2
        assert results[0].config.seed == 1
        assert 0.0 <= mean_success_ratio(results) <= 1.0

    def test_mean_success_ratio_empty(self):
        assert mean_success_ratio([]) == 0.0
