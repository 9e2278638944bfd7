"""Tests for GPS, motion profiles, and the planner/predictor providers."""

import numpy as np
import pytest

from repro.geometry.vec import Vec2
from repro.mobility.gps import GpsModel
from repro.mobility.path import PiecewisePath, Waypoint
from repro.mobility.planner import FullKnowledgeProvider, PlannerProfileProvider
from repro.mobility.predictor import DIVERGENCE_THRESHOLD_M, HistoryPredictorProvider
from repro.mobility.profile import MotionProfile


def straight_path(speed=4.0, duration=200.0):
    return PiecewisePath.from_velocity(Vec2(0, 0), Vec2(speed, 0), 0.0, duration)


def turning_path():
    """East for 70 s at 4 m/s, then north for 70 s."""
    return PiecewisePath(
        [
            Waypoint(0.0, Vec2(0, 0)),
            Waypoint(70.0, Vec2(280, 0)),
            Waypoint(140.0, Vec2(280, 280)),
        ]
    )


class TestGpsModel:
    def test_zero_error_is_exact(self):
        gps = GpsModel(max_error_m=0.0)
        fix = gps.read(straight_path(), 10.0, np.random.default_rng(1))
        assert fix.position.is_close(Vec2(40, 0))
        assert fix.time == 10.0

    def test_error_bounded(self):
        gps = GpsModel(max_error_m=10.0)
        rng = np.random.default_rng(3)
        path = straight_path()
        for t in range(20):
            fix = gps.read(path, float(t), rng)
            assert fix.position.distance_to(path.position_at(float(t))) <= 10.0 + 1e-9

    def test_negative_error_rejected(self):
        with pytest.raises(ValueError):
            GpsModel(max_error_m=-1.0)


class TestMotionProfile:
    def test_advance_time(self):
        profile = MotionProfile(path=straight_path(), ts=10.0, validity_s=50.0, tg=4.0)
        assert profile.advance_time == pytest.approx(6.0)

    def test_negative_advance_time(self):
        profile = MotionProfile(path=straight_path(), ts=10.0, validity_s=50.0, tg=18.0)
        assert profile.advance_time == pytest.approx(-8.0)

    def test_generations_increase(self):
        a = MotionProfile(path=straight_path(), ts=0.0, validity_s=1.0, tg=0.0)
        b = MotionProfile(path=straight_path(), ts=0.0, validity_s=1.0, tg=0.0)
        assert b.generation > a.generation

    def test_validity_must_be_positive(self):
        with pytest.raises(ValueError):
            MotionProfile(path=straight_path(), ts=0.0, validity_s=0.0, tg=0.0)


class TestFullKnowledgeProvider:
    def test_single_exact_profile_at_zero(self):
        path = turning_path()
        provider = FullKnowledgeProvider(path, duration_s=140.0)
        arrivals = provider.arrivals()
        assert len(arrivals) == 1
        assert arrivals[0].time == 0.0
        profile = arrivals[0].profile
        assert profile.position_at(100.0).is_close(path.position_at(100.0))


class TestPlannerProvider:
    def test_one_profile_per_leg(self):
        provider = PlannerProfileProvider(turning_path(), 140.0, advance_time_s=6.0)
        arrivals = provider.arrivals()
        assert len(arrivals) == 2
        assert arrivals[0].profile.ts == 0.0
        assert arrivals[1].profile.ts == 70.0

    def test_positive_advance_time_arrives_early(self):
        provider = PlannerProfileProvider(turning_path(), 140.0, advance_time_s=6.0)
        second = provider.arrivals()[1]
        assert second.time == pytest.approx(64.0)
        assert second.profile.advance_time == pytest.approx(6.0)

    def test_negative_advance_time_arrives_late(self):
        provider = PlannerProfileProvider(turning_path(), 140.0, advance_time_s=-8.0)
        second = provider.arrivals()[1]
        assert second.time == pytest.approx(78.0)

    def test_arrival_never_before_zero(self):
        provider = PlannerProfileProvider(turning_path(), 140.0, advance_time_s=25.0)
        first = provider.arrivals()[0]
        assert first.time == 0.0

    def test_profiles_are_exact_within_leg(self):
        path = turning_path()
        provider = PlannerProfileProvider(path, 140.0, advance_time_s=0.0)
        second = provider.arrivals()[1].profile
        assert second.position_at(100.0).is_close(path.position_at(100.0))


class TestPredictorProvider:
    def _provider(self, path, err=0.0, duration=140.0, **kwargs):
        return HistoryPredictorProvider(
            path,
            duration,
            gps=GpsModel(max_error_m=err),
            rng=np.random.default_rng(7),
            sampling_period_s=8.0,
            **kwargs,
        )

    def test_exact_fixes_give_exact_velocity(self):
        provider = self._provider(straight_path())
        first = provider.arrivals()[0]
        # predicted position matches the true straight line
        assert first.profile.position_at(50.0).is_close(Vec2(200, 0), tol=1e-6)

    def test_profile_timing_is_negative_advance(self):
        provider = self._provider(straight_path())
        first = provider.arrivals()[0]
        assert first.time == pytest.approx(8.0)
        assert first.profile.advance_time == pytest.approx(-8.0)

    def test_new_profile_after_each_change(self):
        provider = self._provider(turning_path())
        times = [a.time for a in provider.arrivals()]
        assert 8.0 in times
        assert 78.0 in times  # change at 70 + sampling period 8

    def test_no_divergence_reissues_on_exact_straight_path(self):
        provider = self._provider(straight_path())
        assert len(provider.arrivals()) == 1

    def test_divergence_reissues_with_error(self):
        # GPS error as large as DIVERGENCE_THRESHOLD_M: the monitor fires.
        provider = self._provider(
            straight_path(duration=300.0), err=DIVERGENCE_THRESHOLD_M, duration=300.0
        )
        arrivals = provider.arrivals()
        assert len(arrivals) > 2  # reissued more than once

    def test_reissue_reduces_prediction_error(self):
        path = straight_path(duration=300.0)
        rng = np.random.default_rng(5)
        with_monitor = HistoryPredictorProvider(
            path, 300.0, GpsModel(10.0), rng
        ).arrivals()
        # Prediction error at a late time under the latest profile is small.
        last = with_monitor[-1].profile
        t = min(290.0, last.ts + last.validity_s)
        error = last.position_at(t).distance_to(path.position_at(t))
        assert error < 40.0

    def test_validation(self):
        with pytest.raises(ValueError):
            self._provider(straight_path(), duration=-1.0)
        with pytest.raises(ValueError):
            HistoryPredictorProvider(
                straight_path(), 10.0, GpsModel(0.0),
                np.random.default_rng(1), sampling_period_s=0.0,
            )
