"""The serve daemon: lifecycle, tenancy, drain, and the replay proof.

Most tests drive :class:`ServeApp` directly and move its clock with
``pump_step()`` in their own thread (time_scale=0, so a 12-simulated-second
world finishes in well under a second of wall time, and the same calls give
the same op log on every run); the tests of threading — parallel submits,
the cancel race, a dying pump thread — start the pump thread, and one spins
up the real HTTP server on an ephemeral port.
"""

import json
import threading
import time

import pytest

from repro.api.scenarios import ScenarioSpec
from repro.serve.daemon import MAX_BODY_BYTES, ServeApp, make_server
from repro.serve.client import ServeClient
from repro.serve.errors import WireError
from repro.serve.log import read_log, verify_log


def tiny_spec(**overrides):
    """A small single-world scenario that free-runs in < 1s of wall time."""
    data = {
        "name": "serve-tiny",
        "description": "daemon test world",
        "mode": "jit",
        "seed": 2,
        "duration_s": 12.0,
        "requests": [],
    }
    data.update(overrides)
    return ScenarioSpec.from_dict(data)


PAYLOAD = {"radius_m": 60.0, "period_s": 2.0, "freshness_s": 1.0}


def make_app(spec=None, **kwargs):
    kwargs.setdefault("time_scale", 0.0)
    return ServeApp(spec if spec is not None else tiny_spec(), **kwargs)


def drain(app):
    """Refuse new submits and step the clock until no session is live."""
    app.begin_drain()
    while app.pump_step() is not None:
        pass


def finish_and_verify(app):
    """Drain, finish, assert zero leaks, and prove the replay identity."""
    drain(app)
    summary = app.finish()
    assert summary["leak_total"] == 0, summary["leaks"]
    log = read_log(app.log.wal_path)
    log["fingerprints"] = summary["fingerprints"]
    ok, recorded, replayed = verify_log(log)
    assert ok, f"replay diverged:\nlive    {recorded}\nreplay  {replayed}"
    return summary


def logged_ops(app):
    """The ops of a finished app's closed WAL."""
    return read_log(app.log.wal_path)["ops"]


def stream_all(app, token, sid):
    """Step the clock and read one session's ring until done; returns the
    outcomes and the last response."""
    outcomes, after = [], 0
    while True:
        resp = app.results(token, sid, after=after)
        outcomes.extend(resp["outcomes"])
        for outcome in resp["outcomes"]:
            after = max(after, outcome["k"])
        if resp["done"]:
            return outcomes, resp
        assert app.pump_step() is not None, "idle with the session undone"


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------
def test_submit_stream_drain_finish_and_replay():
    app = make_app()
    resp = app.submit("alice", dict(PAYLOAD))
    assert resp["status"] == "admitted"
    assert resp["num_periods"] == 6
    outcomes, last = stream_all(app, "alice", resp["session"])
    assert [o["k"] for o in outcomes] == list(range(1, 7))
    assert all(o["deadline"] == pytest.approx(2.0 * o["k"]) for o in outcomes)
    assert last["status"] == "completed"
    summary = finish_and_verify(app)
    assert summary["sessions"] == {
        "submitted": 1, "admitted": 1, "rejected": 0, "cancelled": 0,
    }
    assert summary["workload"]["sessions"] == 1
    assert summary["fingerprints"]["frames_sent"] > 0


def test_parallel_submits_get_unique_user_ids_and_replay():
    # Pump started only after the burst: a free-running pump could
    # otherwise sprint the sim toward the horizon between two threads'
    # submits on a loaded box.
    app = make_app()
    results = [None] * 6

    def submit(i):
        results[i] = app.submit(f"client-{i}", dict(PAYLOAD))

    threads = [threading.Thread(target=submit, args=(i,)) for i in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    user_ids = [r["user_id"] for r in results]
    assert sorted(user_ids) == list(range(6))  # cluster-unique, lowest-free
    assert len({r["session"] for r in results}) == 6
    app.start()
    finish_and_verify(app)


def test_cancel_race_is_idempotent_and_recorded_once():
    # time_scale=1 keeps the world slow enough that the session is still
    # live when the cancels race in.
    app = make_app(time_scale=1.0)
    app.start()
    sid = app.submit("alice", dict(PAYLOAD))["session"]
    outcomes = [None] * 4
    barrier = threading.Barrier(4)

    def cancel(i):
        barrier.wait()
        outcomes[i] = app.cancel("alice", sid)

    threads = [threading.Thread(target=cancel, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert sum(1 for o in outcomes if o["cancelled"]) == 1
    resp = app.results("alice", sid, after=0, wait_s=0.5)
    assert resp["done"] and resp["status"] == "cancelled"
    finish_and_verify(app)
    cancel_ops = [op for op in logged_ops(app) if op["op"] == "cancel"]
    assert len(cancel_ops) == 1


def test_cancel_after_completion_is_a_noop():
    app = make_app()
    sid = app.submit("alice", dict(PAYLOAD))["session"]
    stream_all(app, "alice", sid)
    resp = app.cancel("alice", sid)
    assert resp["cancelled"] is False
    assert resp["status"] == "completed"
    finish_and_verify(app)
    assert not [op for op in logged_ops(app) if op["op"] == "cancel"]


# ----------------------------------------------------------------------
# Tenancy
# ----------------------------------------------------------------------
def test_foreign_session_is_typed_403_and_unknown_404():
    app = make_app()
    sid = app.submit("alice", dict(PAYLOAD))["session"]
    for call in (
        lambda: app.results("mallory", sid),
        lambda: app.cancel("mallory", sid),
    ):
        with pytest.raises(WireError) as info:
            call()
        assert info.value.code == "foreign-session"
        assert info.value.http_status == 403
    with pytest.raises(WireError) as info:
        app.results("alice", sid + 999)
    assert info.value.code == "unknown-session"
    finish_and_verify(app)


# ----------------------------------------------------------------------
# Refusals: draining, horizon, admission
# ----------------------------------------------------------------------
def test_draining_refuses_new_submits():
    app = make_app()
    app.begin_drain()
    with pytest.raises(WireError) as info:
        app.submit("alice", dict(PAYLOAD))
    assert info.value.code == "draining"
    assert info.value.http_status == 503
    finish_and_verify(app)


def test_finished_daemon_refuses_submits_as_service_closed():
    app = make_app()
    app.finish()
    with pytest.raises(WireError) as info:
        app.submit("alice", dict(PAYLOAD))
    assert info.value.code == "service-closed"


def test_horizon_passed_is_refused_before_touching_the_backend():
    app = make_app()
    payload = dict(PAYLOAD)
    payload["start_s"] = 11.5  # horizon 12, period 2: no serviceable period
    with pytest.raises(WireError) as info:
        app.submit("alice", payload)
    assert info.value.code == "horizon-passed"
    # Refused up front: nothing recorded, no backend state, replay of the
    # (empty) log trivially matches.
    assert app.log.written_ops == 0
    assert app.backend.stats().submitted == 0


@pytest.mark.parametrize(
    "path",
    [{"kind": "random", "speed_rnage": [6, 10]}, {"kind": "patrol", "speed": 4.0}],
    ids=["random-typo", "patrol-without-waypoints"],
)
def test_bad_path_dict_is_an_invalid_request(path):
    """A typo'd walk is not served at the default speeds, and a patrol
    with no waypoints is the client's error, not an unknown scenario."""
    app = make_app()
    with pytest.raises(WireError) as info:
        app.submit("alice", {**PAYLOAD, "path": path})
    assert info.value.code == "invalid-request"
    assert app.log.written_ops == 0


def test_admission_rejection_is_typed_and_replayable():
    # A per-area cap of one plus two users pinned to the same patrol path
    # forces a deterministic rejection for the second submit.
    spec = tiny_spec(
        admission={"policy": "per-area-cap", "max_overlapping": 1}
    )
    app = make_app(spec)
    payload = dict(PAYLOAD)
    payload["path"] = {
        "kind": "patrol",
        "waypoints": [[200.0, 200.0], [260.0, 200.0]],
        "speed": 2.0,
        "loops": 4,
    }
    first = app.submit("alice", dict(payload))
    assert first["status"] == "admitted"
    second = app.submit("bob", dict(payload))
    assert second["status"] == "rejected"
    assert second["error"]["code"] == "admission-rejected"
    assert second["reason"]
    resp = app.results("bob", second["session"], wait_s=0.2)
    assert resp["done"] and resp["outcomes"] == []
    summary = finish_and_verify(app)
    assert summary["sessions"]["rejected"] == 1
    # The rejection is part of the recorded history (it consumed the
    # admission decision sequence), so replay must reproduce it.
    assert len([op for op in logged_ops(app) if op["op"] == "submit"]) == 2


# ----------------------------------------------------------------------
# Cluster backend behind the same daemon
# ----------------------------------------------------------------------
def test_cluster_backend_serves_and_replays():
    spec = tiny_spec(name="serve-tiny-cluster", shards=2)
    app = make_app(spec)
    sids = [app.submit("alice", dict(PAYLOAD))["session"] for _ in range(3)]
    outcomes, _ = stream_all(app, "alice", sids[0])
    assert outcomes
    summary = finish_and_verify(app)
    assert summary["stats"]["shards"] == 2
    assert summary["sessions"]["admitted"] == 3


# ----------------------------------------------------------------------
# The real HTTP surface
# ----------------------------------------------------------------------
def test_http_round_trip_on_ephemeral_port():
    app = make_app()
    app.start()
    server = make_server(app, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address
    url = f"http://{host}:{port}"
    try:
        client = ServeClient(url, "alice")
        health = client.healthz()
        assert health["ok"] and health["scenario"] == "serve-tiny"

        status, resp = client.submit(dict(PAYLOAD))
        assert status == 201 and resp["status"] == "admitted"
        sid = resp["session"]

        # stream to completion over HTTP
        after, got = 0, []
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            r = client.results(sid, after=after, wait_s=1.0)
            got.extend(r["outcomes"])
            for o in r["outcomes"]:
                after = max(after, o["k"])
            if r["done"]:
                break
        assert [o["k"] for o in got] == list(range(1, 7))

        stats = client.stats()
        assert stats["shards"] == 1
        server_side = stats["server"]
        assert server_side["scenario"] == "serve-tiny"
        assert server_side["sessions"]["total"] == 1
        assert "POST /sessions" in server_side["latency_ms"]

        # typed errors over the wire
        status, resp = ServeClient(url, "mallory").request(
            "DELETE", f"/sessions/{sid}"
        )
        assert status == 403
        assert resp["error"]["code"] == "foreign-session"

        no_token = ServeClient(url, "x")
        no_token.token = ""
        status, resp = no_token.request("GET", f"/sessions/{sid}/results")
        assert status == 401 and resp["error"]["code"] == "missing-token"

        status, resp = client.request("GET", "/no/such/route")
        assert status == 404 and resp["error"]["code"] == "unknown-route"

        import urllib.request

        req = urllib.request.Request(
            f"{url}/sessions",
            data=b"{not json",
            method="POST",
            headers={"X-Repro-Token": "alice"},
        )
        try:
            urllib.request.urlopen(req, timeout=5.0)
            raise AssertionError("bad JSON must not return 2xx")
        except urllib.error.HTTPError as exc:
            assert exc.code == 400
            assert json.loads(exc.read())["error"]["code"] == "invalid-request"
    finally:
        server.shutdown()
        server.server_close()
    finish_and_verify(app)


@pytest.mark.parametrize(
    "declared", [str(MAX_BODY_BYTES + 1), "-5", "lots"],
    ids=["over-limit", "negative", "non-integer"],
)
def test_bad_content_length_is_refused_without_reading_the_body(declared):
    """No handler thread allocates or blocks on a length the client chose.

    The request declares a body and never sends one: the daemon must
    answer 400 at once (not wait for the bytes) and close the connection
    (the unread body would otherwise be parsed as the next request).
    """
    import socket

    app = make_app()
    server = make_server(app, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        with socket.create_connection(server.server_address, timeout=5.0) as sock:
            sock.sendall(
                b"POST /sessions HTTP/1.1\r\nHost: x\r\nX-Repro-Token: alice\r\n"
                + f"Content-Length: {declared}\r\n\r\n".encode("ascii")
            )
            raw = b""
            while chunk := sock.recv(65536):  # ends when the server closes
                raw += chunk
    finally:
        server.shutdown()
        server.server_close()
    head, _, body = raw.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400 ")
    assert b"Connection: close" in head
    error = json.loads(body)["error"]
    assert error["code"] == "invalid-request"
    assert "Content-Length" in error["message"] and declared in error["message"]
    assert app.sessions == {}


def test_client_raises_daemon_unreachable():
    client = ServeClient("http://127.0.0.1:9", "x", timeout_s=0.5)
    with pytest.raises(WireError) as info:
        client.healthz()
    assert info.value.code == "daemon-unreachable"
    assert info.value.exit_code == 3


# ----------------------------------------------------------------------
# A body that no loader would build never reaches the pump
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "body",
    [
        '{"radius_m": NaN, "lifetime_s": 10.0}',
        '{"period_s": Infinity, "lifetime_s": 10.0}',
        '{"start_s": Infinity}',
    ],
    ids=["nan-radius", "infinite-period", "infinite-start"],
)
def test_a_non_finite_number_is_refused_and_the_pump_keeps_serving(body):
    """``json.loads`` reads ``NaN`` and ``Infinity``; the request loader
    refuses them before the backend, the WAL or the pump sees them."""
    app = make_app()
    with pytest.raises(WireError) as info:
        app.submit("mallory", json.loads(body))
    assert info.value.code == "invalid-request"
    assert "must be a finite number" in info.value.message
    assert app.log.written_ops == 0
    sid = app.submit("alice", dict(PAYLOAD))["session"]
    outcomes, _ = stream_all(app, "alice", sid)
    assert [o["k"] for o in outcomes] == list(range(1, len(outcomes) + 1))
    assert app.healthz()["ok"]
    finish_and_verify(app)


@pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
def test_a_dead_pump_is_not_a_healthy_daemon(monkeypatch):
    app = make_app()
    app.submit("alice", dict(PAYLOAD))

    def broken_advance(until):
        raise RuntimeError("the world cannot advance")

    monkeypatch.setattr(app.backend, "advance", broken_advance)
    assert app.healthz()["ok"]  # not started yet: nothing has died
    app.start()
    app._pump.join(5.0)  # the first slice raises and ends the thread
    assert not app._pump.is_alive()
    assert not app.healthz()["ok"]
    assert not app.wait_drained(60.0)  # at once: the clock has stopped
