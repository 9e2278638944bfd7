"""The serve wire contract: error codes, ring semantics, codecs.

These pin the *stable* surface — the error-code table, the payload
shapes, the percentile arithmetic — so a wire-visible change can never
happen by accident.
"""

import threading
import time

import pytest

from repro.api.backend import BackendStats
from repro.api.scenarios import (
    SCENARIOS,
    build_request_payloads,
    build_requests,
    request_from_payload,
)
from repro.api.service import ServiceClosedError
from dataclasses import asdict

from repro.api.admission import AdmissionDecision
from repro.plain import load
from repro.serve.errors import (
    ERROR_CODES,
    EXIT_FAILURE,
    EXIT_USAGE,
    RETRYABLE_CODES,
    WireError,
    map_exception,
)
from repro.serve.ring import ResultRing
from repro.serve.wire import percentile, request_from_wire, summarize


# ----------------------------------------------------------------------
# The typed error contract (satellite: tests pin the codes)
# ----------------------------------------------------------------------
def test_error_code_table_is_pinned():
    assert ERROR_CODES == {
        "invalid-request": (400, 2),
        "unknown-scenario": (404, 2),
        "missing-token": (401, 2),
        "unknown-route": (404, 2),
        "foreign-session": (403, 3),
        "unknown-session": (404, 3),
        "admission-rejected": (409, 3),
        "horizon-passed": (409, 3),
        "service-closed": (503, 3),
        "draining": (503, 3),
        "daemon-unreachable": (502, 3),
        "replay-mismatch": (409, 3),
        "internal": (500, 3),
        "rate-limited": (429, 3),
        "overloaded": (503, 3),
        "chaos-injected": (503, 3),
    }
    assert EXIT_USAGE == 2 and EXIT_FAILURE == 3
    # The retryable set is wire API too: clients branch on it.
    assert RETRYABLE_CODES == {"rate-limited", "overloaded", "chaos-injected"}


def test_wire_error_retry_after_rides_payload_and_round_trips():
    err = WireError("rate-limited", "slow down", retry_after_s=0.25)
    assert err.payload() == {
        "error": {
            "code": "rate-limited",
            "message": "slow down",
            "retry_after_s": 0.25,
        }
    }
    back = WireError.from_payload(err.payload())
    assert back.retry_after_s == 0.25
    # Absent hint stays absent — the payload shape is unchanged for
    # every pre-existing code.
    assert WireError("draining", "x").payload() == {
        "error": {"code": "draining", "message": "x"}
    }


def test_wire_error_carries_status_and_exit_code():
    err = WireError("foreign-session", "not yours")
    assert err.http_status == 403
    assert err.exit_code == 3
    assert err.payload() == {
        "error": {"code": "foreign-session", "message": "not yours"}
    }


def test_wire_error_rejects_unknown_code():
    with pytest.raises(ValueError):
        WireError("no-such-code", "boom")


def test_wire_error_round_trips_through_payload():
    err = WireError("draining", "shutting down")
    back = WireError.from_payload(err.payload())
    assert (back.code, back.message) == ("draining", "shutting down")


def test_wire_error_from_malformed_payload_is_internal():
    assert WireError.from_payload({"nope": 1}).code == "internal"
    assert WireError.from_payload({"error": {"code": "???"}}).code == "internal"


def test_map_exception_folds_into_the_contract():
    assert map_exception(WireError("draining", "x")).code == "draining"
    assert map_exception(ServiceClosedError("sealed")).code == "service-closed"
    assert map_exception(KeyError("nope")).code == "unknown-scenario"
    assert map_exception(ValueError("bad")).code == "invalid-request"
    assert map_exception(TypeError("bad")).code == "invalid-request"
    assert map_exception(RuntimeError("?")).code == "internal"


# ----------------------------------------------------------------------
# The result ring
# ----------------------------------------------------------------------
def test_ring_append_read_and_done():
    ring = ResultRing(capacity=8)
    ring.append({"k": 1})
    ring.append({"k": 2})
    items, missed, done = ring.read(after_k=0)
    assert [i["k"] for i in items] == [1, 2]
    assert missed == 0 and not done
    items, _, _ = ring.read(after_k=1)
    assert [i["k"] for i in items] == [2]
    ring.close()
    items, _, done = ring.read(after_k=2)
    assert items == [] and done


def test_ring_bounded_overflow_reports_missed():
    ring = ResultRing(capacity=2)
    for k in (1, 2, 3, 4):
        ring.append({"k": k})
    assert ring.dropped == 2
    items, missed, _ = ring.read(after_k=0)
    assert [i["k"] for i in items] == [3, 4]
    assert missed == 2  # periods 1 and 2 were evicted unseen


def test_ring_long_poll_wakes_on_append():
    ring = ResultRing()
    got = {}

    def reader():
        got["result"] = ring.read(after_k=0, wait_s=5.0)

    thread = threading.Thread(target=reader)
    thread.start()
    time.sleep(0.05)
    ring.append({"k": 1})
    thread.join(timeout=5.0)
    items, missed, done = got["result"]
    assert [i["k"] for i in items] == [1] and missed == 0 and not done


def test_ring_long_poll_times_out_empty():
    ring = ResultRing()
    t0 = time.monotonic()
    items, missed, done = ring.read(after_k=0, wait_s=0.05)
    assert items == [] and not done
    assert time.monotonic() - t0 >= 0.04


def test_ring_long_poll_under_concurrent_readers_and_eviction():
    """N readers long-polling one tiny ring while a writer floods it.

    Every reader must terminate (no lost wakeups), and each one's
    ``received + missed`` accounting must equal the total appended —
    eviction under pressure loses entries, never *count* of entries.
    """
    ring = ResultRing(capacity=4)
    total = 200
    results = {}

    def reader(slot):
        received = missed = after = 0
        while True:
            items, miss, done = ring.read(after_k=after, wait_s=2.0)
            received += len(items)
            missed += miss
            for item in items:
                assert item["k"] > after  # strictly forward, never replayed
                after = item["k"]
            if done and not items:
                results[slot] = (received, missed)
                return

    threads = [
        threading.Thread(target=reader, args=(slot,), daemon=True)
        for slot in range(4)
    ]
    for thread in threads:
        thread.start()
    for k in range(1, total + 1):
        ring.append({"k": k})
        if k % 16 == 0:
            time.sleep(0.001)  # let readers interleave with eviction
    ring.close()
    for thread in threads:
        thread.join(timeout=10.0)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == 4
    for received, missed in results.values():
        assert received + missed == total
        assert received >= 1  # everyone saw at least something


def test_ring_rejects_append_after_close_and_bad_capacity():
    ring = ResultRing()
    ring.close()
    with pytest.raises(RuntimeError):
        ring.append({"k": 1})
    with pytest.raises(ValueError):
        ResultRing(capacity=0)


# ----------------------------------------------------------------------
# The request codec
# ----------------------------------------------------------------------
def test_request_from_wire_decodes_a_payload():
    request = request_from_wire(
        {"radius_m": 60.0, "period_s": 2.0, "freshness_s": 1.0,
         "aggregation": "max"}
    )
    assert request.radius_m == 60.0
    assert request.aggregation.value == "max"


@pytest.mark.parametrize(
    "key", ["user_id", "provider", "count", "spacing_s", "arrival"]
)
def test_request_from_wire_forbids_host_side_fields(key):
    with pytest.raises(WireError) as info:
        request_from_wire({key: 1})
    assert info.value.code == "invalid-request"
    assert key in info.value.message


def test_request_from_wire_rejects_non_dict_and_bad_values():
    for bad in ([1, 2], "nope", None):
        with pytest.raises(WireError) as info:
            request_from_wire(bad)
        assert info.value.code == "invalid-request"
    with pytest.raises(WireError) as info:
        request_from_wire({"radius_m": -5.0})
    assert info.value.code == "invalid-request"
    with pytest.raises(WireError) as info:
        request_from_wire({"no_such_field": 1})
    assert info.value.code == "invalid-request"


def test_request_payload_expansion_matches_build_requests():
    """build_requests == request_from_payload . build_request_payloads."""
    for spec in SCENARIOS.values():
        direct = build_requests(spec)
        via_payloads = [
            request_from_payload(p) for p in build_request_payloads(spec)
        ]
        assert len(direct) == len(via_payloads)
        for a, b in zip(direct, via_payloads):
            assert a.start_s == b.start_s
            assert a.period_s == b.period_s
            assert a.radius_m == b.radius_m
            assert a.freshness_s == b.freshness_s
            assert a.aggregation == b.aggregation
            assert (a.path is None) == (b.path is None)


def test_request_payloads_are_json_plain():
    import json

    for spec in SCENARIOS.values():
        payloads = build_request_payloads(spec)
        assert json.loads(json.dumps(payloads)) == payloads


# ----------------------------------------------------------------------
# Decision round-trip (the submission log's admission entries)
# ----------------------------------------------------------------------
def test_decision_round_trip():
    for decision in (
        AdmissionDecision.accept(),
        AdmissionDecision.accept(offset_s=0.5),
        AdmissionDecision.reject("too crowded"),
    ):
        assert load(AdmissionDecision, asdict(decision), "decision") == decision


def test_logged_decision_is_loaded_strictly():
    with pytest.raises(ValueError, match="unknown decision key 'bogus'"):
        load(AdmissionDecision, {"admitted": True, "bogus": 1}, "decision")
    # a string is not a verdict: "false" used to replay as admitted
    with pytest.raises(
        ValueError, match="decision admitted must be true or false, got 'false'"
    ):
        load(AdmissionDecision, {"admitted": "false"}, "decision")


# ----------------------------------------------------------------------
# Percentiles + stats shapes
# ----------------------------------------------------------------------
def test_percentile_nearest_rank():
    values = [10.0, 20.0, 30.0, 40.0, 50.0]
    assert percentile(values, 50) == 30.0
    assert percentile(values, 90) == 50.0
    assert percentile(values, 99) == 50.0
    assert percentile(values, 1) == 10.0
    assert percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_summarize_shape():
    assert summarize([]) is None
    stats = summarize([3.0, 1.0, 2.0])
    assert stats == {
        "count": 3, "mean": 2.0, "p50": 2.0, "p90": 3.0, "p99": 3.0,
        "max": 3.0,
    }


def test_backend_stats_to_dict_is_json_shape():
    stats = BackendStats(
        now=1.0, events_executed=2, frames_sent=3, frames_collided=4,
        frames_delivered=5, backbone_size=6,
    )
    data = stats.to_dict()
    assert data["now"] == 1.0 and data["shards"] == 1
    assert set(data) == {
        "now", "events_executed", "frames_sent", "frames_collided",
        "frames_delivered", "backbone_size", "shards", "submitted",
        "admitted", "rejected", "cancelled",
    }
