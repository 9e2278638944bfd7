"""Unit tests for RNG streams and the tracer."""

import pytest

from repro.sim.rng import RandomStreams
from repro.sim.trace import Tracer


class TestRandomStreams:
    def test_same_seed_same_stream(self):
        a = RandomStreams(7).stream("mac")
        b = RandomStreams(7).stream("mac")
        assert list(a.integers(0, 1000, 5)) == list(b.integers(0, 1000, 5))

    def test_different_names_differ(self):
        streams = RandomStreams(7)
        a = streams.stream("mac")
        b = streams.stream("mobility")
        assert list(a.integers(0, 10**9, 8)) != list(b.integers(0, 10**9, 8))

    def test_different_seeds_differ(self):
        a = RandomStreams(1).stream("x")
        b = RandomStreams(2).stream("x")
        assert list(a.integers(0, 10**9, 8)) != list(b.integers(0, 10**9, 8))

    def test_stream_is_cached(self):
        streams = RandomStreams(3)
        assert streams.stream("a") is streams.stream("a")

    def test_stream_identity_independent_of_creation_order(self):
        s1 = RandomStreams(5)
        s1.stream("first")
        first_then = list(s1.stream("second").integers(0, 10**9, 4))
        s2 = RandomStreams(5)
        second_only = list(s2.stream("second").integers(0, 10**9, 4))
        assert first_then == second_only

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            RandomStreams(-1)


class TestTracer:
    def test_counts_every_emit(self):
        tracer = Tracer()
        tracer.emit("tx", 1.0, src=1)
        tracer.emit("tx", 2.0, src=2)
        tracer.emit("rx", 2.5)
        assert tracer.count("tx") == 2
        assert tracer.count("rx") == 1
        assert tracer.count("nothing") == 0

    def test_retention_only_for_kept_kinds(self):
        tracer = Tracer(keep=["tx"])
        tracer.emit("tx", 1.0, src=1)
        tracer.emit("rx", 2.0)
        assert len(tracer.records("tx")) == 1
        assert tracer.records("rx") == []

    def test_keep_kind_added_later(self):
        tracer = Tracer()
        tracer.emit("x", 1.0)
        tracer.keep_kind("x")
        tracer.emit("x", 2.0)
        assert len(tracer.records("x")) == 1

    def test_subscription_callback(self):
        tracer = Tracer()
        seen = []
        tracer.subscribe("evt", lambda r: seen.append((r.time, r["value"])))
        tracer.emit("evt", 3.0, value=42)
        tracer.emit("other", 4.0)
        assert seen == [(3.0, 42)]

    def test_record_get_with_default(self):
        tracer = Tracer(keep=["evt"])
        tracer.emit("evt", 1.0, a=1)
        record = tracer.records("evt")[0]
        assert record.get("a") == 1
        assert record.get("missing", "dflt") == "dflt"

    def test_clear(self):
        tracer = Tracer(keep=["a"])
        tracer.emit("a", 1.0)
        tracer.clear()
        assert tracer.records() == []
        assert tracer.count("a") == 0
