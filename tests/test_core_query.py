"""Tests for the query model and mergeable aggregates."""

import pytest

from repro.core.query import AggregateState, Aggregation, QuerySpec


class TestQuerySpec:
    def test_paper_defaults(self):
        spec = QuerySpec()
        assert spec.radius_m == 150.0
        assert spec.period_s == 2.0
        assert spec.freshness_s == 1.0

    def test_num_periods(self):
        spec = QuerySpec(period_s=2.0, lifetime_s=400.0)
        assert spec.num_periods == 200

    def test_num_periods_rounds_down(self):
        spec = QuerySpec(period_s=3.0, lifetime_s=10.0)
        assert spec.num_periods == 3

    def test_deadline_and_sense_time(self):
        spec = QuerySpec(period_s=2.0, freshness_s=1.0)
        assert spec.deadline(5) == pytest.approx(10.0)

    def test_deadline_index_validation(self):
        with pytest.raises(ValueError):
            QuerySpec().deadline(0)

    def test_unique_ids(self):
        assert QuerySpec().query_id != QuerySpec().query_id

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            QuerySpec(radius_m=0.0)
        with pytest.raises(ValueError):
            QuerySpec(period_s=0.0)
        with pytest.raises(ValueError):
            QuerySpec(lifetime_s=0.5, period_s=1.0)


class TestAggregateState:
    def test_from_reading(self):
        agg = AggregateState.from_reading(7, 25.0)
        assert agg.count == 1
        assert agg.contributors == {7}
        assert agg.value(Aggregation.AVG) == 25.0

    def test_merge_statistics(self):
        a = AggregateState.from_reading(1, 10.0)
        b = AggregateState.from_reading(2, 30.0)
        a.merge(b)
        assert a.count == 2
        assert a.value(Aggregation.AVG) == pytest.approx(20.0)
        assert a.value(Aggregation.MIN) == 10.0
        assert a.value(Aggregation.MAX) == 30.0
        assert a.value(Aggregation.SUM) == 40.0
        assert a.value(Aggregation.COUNT) == 2.0

    def test_merge_duplicate_contributor_ignored(self):
        a = AggregateState.from_reading(1, 10.0)
        a.merge(AggregateState.from_reading(1, 10.0))
        assert a.count == 1
        assert a.value(Aggregation.SUM) == 10.0

    def test_merge_multi_contributor_partials(self):
        left = AggregateState.from_reading(1, 10.0)
        left.merge(AggregateState.from_reading(2, 20.0))
        right = AggregateState.from_reading(3, 60.0)
        right.merge(AggregateState.from_reading(4, 30.0))
        left.merge(right)
        assert left.count == 4
        assert left.contributors == {1, 2, 3, 4}
        assert left.value(Aggregation.AVG) == pytest.approx(30.0)

    def test_empty_value_is_none(self):
        assert AggregateState().value(Aggregation.AVG) is None

    def test_copy_is_independent(self):
        a = AggregateState.from_reading(1, 5.0)
        b = a.copy()
        b.merge(AggregateState.from_reading(2, 7.0))
        assert a.count == 1
        assert b.count == 2

    def test_merge_order_invariance(self):
        readings = [(1, 4.0), (2, -3.0), (3, 10.0), (4, 0.5)]
        forward = AggregateState()
        for nid, v in readings:
            forward.merge(AggregateState.from_reading(nid, v))
        backward = AggregateState()
        for nid, v in reversed(readings):
            backward.merge(AggregateState.from_reading(nid, v))
        for agg in Aggregation:
            assert forward.value(agg) == pytest.approx(backward.value(agg))
