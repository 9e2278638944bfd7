"""The wire-chaos plane: plan validation, determinism, HTTP injection.

Chaos lives strictly *between* the socket and the app: it draws from its
own dedicated ``"faults.wire"`` stream, so however hard it mangles the
HTTP surface, the world underneath stays bit-identical (pinned in
test_golden_determinism.py).
"""

import threading

import pytest

from repro.api.scenarios import ScenarioSpec
from repro.faults.plan import FaultPlan, WireChaos
from repro.serve.chaos import WireChaosPlane
from repro.serve.client import RetryPolicy, ServeClient
from repro.serve.daemon import ServeApp, make_server
from repro.serve.errors import WireError
from repro.serve.log import read_log


PAYLOAD = {"radius_m": 60.0, "period_s": 2.0, "freshness_s": 1.0}


def chaos_spec(wire, **overrides):
    data = {
        "name": "chaos-tiny",
        "description": "wire-chaos test world",
        "mode": "jit",
        "seed": 2,
        "duration_s": 12.0,
        "requests": [],
        "faults": {"wire": wire},
    }
    data.update(overrides)
    return ScenarioSpec.from_dict(data)


# ----------------------------------------------------------------------
# WireChaos validation + plan round trip
# ----------------------------------------------------------------------
def test_wire_chaos_validates_probabilities():
    WireChaos(reset_prob=0.5, delay_prob=0.5, delay_s=1.0)
    for bad in (
        {"reset_prob": -0.1},
        {"reset_prob": 1.1},
        {"error_prob": 2.0},
        {"truncate_prob": -1.0},
        {"delay_s": -0.5},
        {"delay_prob": 0.5},  # delay without a magnitude
    ):
        with pytest.raises(ValueError):
            WireChaos(**bad)


def test_fault_plan_wire_section_round_trips():
    plan = FaultPlan.from_dict(
        {"wire": {"reset_prob": 0.1, "delay_prob": 0.2, "delay_s": 0.05}}
    )
    assert plan.wire is not None
    assert not plan.empty
    assert plan.world_empty  # wire-only: nothing happens inside the world
    back = FaultPlan.from_dict(plan.to_dict())
    assert back.wire == plan.wire


def test_fault_plan_rejects_malformed_wire_sections():
    with pytest.raises(ValueError):
        FaultPlan.from_dict({"wire": [0.1]})
    with pytest.raises(ValueError):
        FaultPlan.from_dict({"wire": {"reset_probability": 0.1}})


def test_empty_wire_section_normalizes_to_no_wire_plan():
    # An all-zeros wire section and no wire section are the same plan —
    # the bit-identity guarantee depends on it.
    explicit = FaultPlan.from_dict({"wire": {}})
    zeros = FaultPlan.from_dict(
        {"wire": {"reset_prob": 0.0, "error_prob": 0.0}}
    )
    absent = FaultPlan.from_dict({})
    assert explicit.wire is None and zeros.wire is None
    assert explicit.empty and zeros.empty
    assert explicit.to_dict() == absent.to_dict()


# ----------------------------------------------------------------------
# The plane: determinism and counters
# ----------------------------------------------------------------------
def test_plane_refuses_empty_chaos_and_is_seed_deterministic():
    with pytest.raises(ValueError):
        WireChaosPlane(WireChaos(), seed=1)
    chaos = WireChaos(
        reset_prob=0.3, delay_prob=0.3, delay_s=0.2, error_prob=0.3,
        truncate_prob=0.3,
    )
    a = WireChaosPlane(chaos, seed=7)
    b = WireChaosPlane(chaos, seed=7)
    actions_a = [a.plan_request() for _ in range(64)]
    actions_b = [b.plan_request() for _ in range(64)]
    assert actions_a == actions_b
    assert a.counters == b.counters
    assert a.counters["requests"] == 64
    # With every prob at 0.3, 64 draws virtually surely fire something.
    assert (
        a.counters["resets"] + a.counters["injected_errors"]
        + a.counters["truncations"] + a.counters["delays"]
    ) > 0
    assert WireChaosPlane(chaos, seed=8).plan_request is not None
    snap = a.snapshot()
    assert snap["plan"]["reset_prob"] == 0.3
    assert snap["requests"] == 64


def test_certain_probabilities_fire_every_time():
    chaos = WireChaos(error_prob=1.0)
    plane = WireChaosPlane(chaos, seed=1)
    actions = [plane.plan_request() for _ in range(8)]
    assert all(a.inject_error for a in actions)
    assert plane.counters["injected_errors"] == 8


def test_wire_chaos_daemon_world_is_bit_identical_to_plain():
    # Same submits, one daemon carrying a hostile wire plan (exercised
    # heavily via plan_request), one daemon with no plan at all: the
    # worlds underneath must finish with identical fingerprints — the
    # chaos plane's draws never touch the simulation's streams.
    wire = {"reset_prob": 0.4, "delay_prob": 0.4, "delay_s": 0.05,
            "error_prob": 0.4, "truncate_prob": 0.4}

    def run(spec):
        app = ServeApp(spec, time_scale=0.0)
        app.submit("alice", dict(PAYLOAD))
        if app.chaos is not None:
            for _ in range(32):  # burn the wire stream hard mid-run
                app.chaos.plan_request()
        app.submit("bob", dict(PAYLOAD))
        app.start()
        app.begin_drain()
        assert app.wait_drained(60.0)
        return app.finish()["fingerprints"]

    chaotic = run(chaos_spec(wire))
    plain = run(chaos_spec(wire, faults={}))
    assert chaotic == plain


# ----------------------------------------------------------------------
# HTTP integration: the middleware mangles real requests
# ----------------------------------------------------------------------
def run_http(app):
    server = make_server(app, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address
    return server, f"http://{host}:{port}"


def test_injected_errors_are_typed_and_survivable_via_retry():
    # error_prob=1: every request answers 503 chaos-injected before
    # dispatch.  A fail-fast client sees the typed payload as data; a
    # retrying client burns its attempts and reports gave_up.
    app = ServeApp(chaos_spec({"error_prob": 1.0}), time_scale=0.0)
    app.start()
    server, url = run_http(app)
    try:
        status, resp = ServeClient(url, "alice").request("GET", "/healthz")
        assert status == 503
        assert resp["error"]["code"] == "chaos-injected"
        retrier = ServeClient(
            url, "bob", retry=RetryPolicy(max_attempts=3, base_s=0.01)
        )
        status, resp = retrier.request("GET", "/healthz")
        assert status == 503
        counters, attempts = retrier.counters_snapshot()
        assert counters["chaos_injected"] == 3
        assert counters["retries"] == 2
        assert counters["gave_up"] == 1
        assert attempts == [3]
        # Nothing ever reached the app: chaos preempts dispatch.
        assert app.stats_payload()["server"]["wire_chaos"]["injected_errors"] >= 4
        assert app.log.written_ops == 0
    finally:
        server.shutdown()
        server.server_close()
    app.begin_drain()
    assert app.wait_drained(60.0)
    app.finish()


def test_resets_and_truncations_surface_as_transport_failures():
    # reset_prob=1: the daemon closes the connection without answering;
    # an exhausted client raises the typed daemon-unreachable error.
    app = ServeApp(chaos_spec({"reset_prob": 1.0}), time_scale=0.0)
    app.start()
    server, url = run_http(app)
    try:
        client = ServeClient(
            url, "alice", retry=RetryPolicy(max_attempts=2, base_s=0.01)
        )
        with pytest.raises(WireError) as info:
            client.healthz()
        assert info.value.code == "daemon-unreachable"
        counters, _ = client.counters_snapshot()
        assert counters["transport_errors"] == 2
    finally:
        server.shutdown()
        server.server_close()

    # truncate_prob=1: dispatch happens (state commits!) but the body is
    # cut short — the client sees a transport failure, not a verdict.
    app2 = ServeApp(chaos_spec({"truncate_prob": 1.0}), time_scale=0.0)
    app2.start()
    server2, url2 = run_http(app2)
    try:
        client = ServeClient(url2, "alice")
        with pytest.raises(WireError):
            client.healthz()
        assert app2.chaos.counters["truncations"] >= 1
    finally:
        server2.shutdown()
        server2.server_close()


def test_truncated_submit_retry_with_idempotency_never_double_admits():
    # The exact failure idempotency keys exist for: the submit COMMITS,
    # the response is lost on the wire, the client retries — and must
    # get the same session back, with exactly one submit in the log.
    app = ServeApp(chaos_spec({"truncate_prob": 1.0}), time_scale=0.0)
    app.start()
    server, url = run_http(app)
    try:
        client = ServeClient(
            url, "alice", retry=RetryPolicy(max_attempts=4, base_s=0.01)
        )
        with pytest.raises(WireError):
            client.submit(dict(PAYLOAD))
        # Every retried attempt deduped onto the first commit.
        assert app.backend.stats().submitted == 1
        assert app.stats_payload()["server"]["idempotency"]["hits"] == 3
    finally:
        server.shutdown()
        server.server_close()
    app.begin_drain()
    assert app.wait_drained(60.0)
    app.finish()
    ops = read_log(app.log.wal_path)["ops"]
    assert [op["op"] for op in ops].count("submit") == 1
