"""The overload-resilient serving edge: token buckets, guards, shedding.

The load-bearing property — proved here from several angles — is that a
shed submit leaves *zero* state behind: no log op, no backend submit, no
RNG draw.  The edge can throttle as hard as it likes without ever
perturbing the replay identity.
"""

import pytest

from repro.api.scenarios import ScenarioSpec
from repro.serve.daemon import ServeApp
from repro.serve.edge import EdgeConfig, EdgeGuard, TokenBucket
from repro.serve.errors import WireError
from repro.serve.log import read_log, verify_log


def tiny_spec(**overrides):
    data = {
        "name": "edge-tiny",
        "description": "edge test world",
        "mode": "jit",
        "seed": 2,
        "duration_s": 12.0,
        "requests": [],
    }
    data.update(overrides)
    return ScenarioSpec.from_dict(data)


PAYLOAD = {"radius_m": 60.0, "period_s": 2.0, "freshness_s": 1.0}


# ----------------------------------------------------------------------
# TokenBucket arithmetic (fake clock, no sleeping)
# ----------------------------------------------------------------------
def test_token_bucket_refill_arithmetic():
    bucket = TokenBucket(rate=2.0, burst=2.0)
    assert bucket.try_take(0.0) == (True, 0.0)
    assert bucket.try_take(0.0) == (True, 0.0)
    ok, retry = bucket.try_take(0.0)
    assert not ok
    assert retry == pytest.approx(0.5)  # 1 token at 2/s = 0.5s away
    # 0.25s later: half a token accrued, still short by half
    ok, retry = bucket.try_take(0.25)
    assert not ok
    assert retry == pytest.approx(0.25, abs=1e-9)
    # full refill after the wait; burst caps accrual
    assert bucket.try_take(10.0) == (True, 0.0)
    assert bucket.try_take(10.0) == (True, 0.0)
    ok, _ = bucket.try_take(10.0)
    assert not ok


def test_token_bucket_rejects_bad_parameters():
    with pytest.raises(ValueError):
        TokenBucket(rate=0.0, burst=2.0)
    with pytest.raises(ValueError):
        TokenBucket(rate=1.0, burst=0.5)


# ----------------------------------------------------------------------
# EdgeConfig
# ----------------------------------------------------------------------
def test_edge_config_defaults_are_disabled():
    config = EdgeConfig()
    assert not config.enabled
    # A disabled guard is a no-op: no counters move, nothing raises.
    guard = EdgeGuard(config)
    guard.admit("anyone", live_sessions=10**6, pump_lag_s=10**6)
    assert guard.counters["checked"] == 0


def test_edge_config_validation_and_effective_burst():
    assert EdgeConfig(rate=4.0).effective_burst == 8.0
    assert EdgeConfig(rate=0.25).effective_burst == 1.0
    assert EdgeConfig(rate=4.0, burst=3.0).effective_burst == 3.0
    for bad in (
        {"rate": -1.0},
        {"burst": -1.0},
        {"max_live_sessions": -1},
        {"max_pump_lag_s": -0.1},
        {"overload_retry_s": 0.0},
    ):
        with pytest.raises(ValueError):
            EdgeConfig(**bad)


# ----------------------------------------------------------------------
# EdgeGuard decisions (fake clock)
# ----------------------------------------------------------------------
def test_guard_rate_limits_per_tenant_with_retry_after():
    clock = {"now": 0.0}
    guard = EdgeGuard(
        EdgeConfig(rate=1.0, burst=1.0), clock=lambda: clock["now"]
    )
    guard.admit("alice", live_sessions=0, pump_lag_s=0.0)
    with pytest.raises(WireError) as info:
        guard.admit("alice", live_sessions=0, pump_lag_s=0.0)
    assert info.value.code == "rate-limited"
    assert info.value.http_status == 429
    assert info.value.retry_after_s == pytest.approx(1.0)
    # Buckets are per tenant: bob is untouched by alice's burn.
    guard.admit("bob", live_sessions=0, pump_lag_s=0.0)
    # And alice recovers once her bucket refills.
    clock["now"] = 1.5
    guard.admit("alice", live_sessions=0, pump_lag_s=0.0)
    assert guard.counters == {
        "checked": 4, "admitted": 3, "rate_limited": 1, "overloaded": 0,
    }
    snap = guard.snapshot()
    assert snap["enabled"] and snap["tenants"] == 2


def test_guard_sheds_on_live_session_and_pump_lag_ceilings():
    guard = EdgeGuard(
        EdgeConfig(max_live_sessions=2, max_pump_lag_s=0.5, overload_retry_s=2.0)
    )
    guard.admit("alice", live_sessions=1, pump_lag_s=0.0)
    with pytest.raises(WireError) as info:
        guard.admit("alice", live_sessions=2, pump_lag_s=0.0)
    assert info.value.code == "overloaded"
    assert info.value.http_status == 503
    assert info.value.retry_after_s == 2.0
    with pytest.raises(WireError) as info:
        guard.admit("alice", live_sessions=0, pump_lag_s=0.75)
    assert "pump" in info.value.message
    assert guard.counters["overloaded"] == 2


# ----------------------------------------------------------------------
# The daemon integration: sheds leave zero state
# ----------------------------------------------------------------------
def test_daemon_shed_leaves_no_log_op_and_no_backend_submit():
    app = ServeApp(
        tiny_spec(), time_scale=0.0, edge=EdgeConfig(max_live_sessions=1)
    )
    first = app.submit("alice", dict(PAYLOAD))
    assert first["status"] == "admitted"
    with pytest.raises(WireError) as info:
        app.submit("alice", dict(PAYLOAD))
    assert info.value.code == "overloaded"
    # The shed consumed nothing: one log op, one backend submission.
    assert app.log.written_ops == 1
    assert app.backend.stats().submitted == 1
    # An edge-shed invalid payload still never reaches validation state.
    with pytest.raises(WireError) as info:
        app.submit("alice", {"radius_m": -1})
    assert info.value.code == "overloaded"
    assert app.log.written_ops == 1
    # Counters surface in GET /stats.
    edge_stats = app.stats_payload()["server"]["edge"]
    assert edge_stats["overloaded"] == 2
    assert edge_stats["admitted"] == 1
    # ...and the run still proves the replay identity.
    app.begin_drain()
    while app.pump_step() is not None:
        pass
    summary = app.finish()
    log = read_log(app.log.wal_path)
    log["fingerprints"] = summary["fingerprints"]
    ok, recorded, replayed = verify_log(log)
    assert ok, f"replay diverged:\nlive    {recorded}\nreplay  {replayed}"


def test_daemon_rate_limit_is_per_tenant():
    app = ServeApp(
        tiny_spec(),
        time_scale=0.0,
        edge=EdgeConfig(rate=0.001, burst=1.0),
    )
    assert app.submit("alice", dict(PAYLOAD))["status"] == "admitted"
    with pytest.raises(WireError) as info:
        app.submit("alice", dict(PAYLOAD))
    assert info.value.code == "rate-limited"
    assert info.value.retry_after_s > 0
    # A different tenant still gets through.
    assert app.submit("bob", dict(PAYLOAD))["status"] == "admitted"
    app.begin_drain()
    while app.pump_step() is not None:
        pass
    app.finish()
