"""Kept-alive connections between :class:`ServeClient` and the daemon.

The client keeps a free list of idle connections; the daemon answers each
request in one write on a ``TCP_NODELAY`` socket and closes a connection
left idle for ``IDLE_TIMEOUT_S``.  Each property is read off the client's
``connections`` counter and the daemon's own ``server.http`` counters
(connections accepted, requests dispatched), never off a clock; the last
test shows the properties a mutant would break are strong enough to
notice it.
"""

import contextlib
import io
import json
import select
import socket
import threading
import time
from types import SimpleNamespace

import pytest

from repro.faults.plan import WireChaos
from repro.serve.chaos import WireChaosPlane
from repro.serve.client import RetryPolicy, ServeClient
from repro.serve.daemon import MAX_WAIT_S, ServeApp, ServeHandler, make_server
from repro.serve.errors import WireError

from .mutants import mutate
from .test_serve_daemon import PAYLOAD, tiny_spec


@contextlib.contextmanager
def serving(time_scale=0.0):
    """An in-process daemon on an ephemeral port: ``(app, url)``."""
    app = ServeApp(tiny_spec(), time_scale=time_scale)
    app.start()
    server = make_server(app, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address
    try:
        yield app, f"http://{host}:{port}"
    finally:
        server.shutdown()
        server.server_close()
        app.finish()


def wire(app):
    """The daemon's ``server.http`` counters, read in-process (no request)."""
    return app.stats_payload()["server"]["http"]


def answered(call, *args):
    """``call(*args)``; a transport failure fails the property."""
    try:
        return call(*args)
    except WireError as exc:
        raise AssertionError(f"request failed: {exc}") from exc


# ----------------------------------------------------------------------
# (a) one client, one connection
# ----------------------------------------------------------------------
def test_sequential_requests_share_one_connection():
    with serving() as (app, url), ServeClient(url, "alice") as client:
        for _ in range(20):
            assert answered(client.healthz)["ok"]
        counters, _ = client.counters_snapshot()
        assert counters["connections"] == 1
        assert counters["transport_errors"] == 0
        assert wire(app) == {"connections": 1, "requests": 20}


# ----------------------------------------------------------------------
# (b) two threads, two connections
# ----------------------------------------------------------------------
def check_two_threads_never_share_a_connection(monkeypatch):
    """Thread A long-polls a session with no outcome due for minutes, so
    its connection is busy until the session ends; thread B starts once
    the daemon holds A's request, must get a connection of its own, and
    ends A's wait by cancelling the session (in-process, off the wire)
    when it is done."""
    with serving(time_scale=0.01) as (app, url), ServeClient(url, "alice") as client:
        status, resp = answered(client.submit, dict(PAYLOAD))
        assert status == 201
        sid = resp["session"]
        replies = {"a": [], "b": []}
        errors = []

        def poll():
            try:
                replies["a"].append(
                    client.results(sid, after=0, wait_s=MAX_WAIT_S)
                )
            except WireError as exc:
                errors.append(exc)

        def probe():
            deadline = time.monotonic() + 10.0
            while wire(app)["requests"] < 2 and time.monotonic() < deadline:
                time.sleep(0.005)
            try:
                for _ in range(5):
                    replies["b"].append(client.healthz())
            except WireError as exc:
                errors.append(exc)
            finally:
                app.cancel("alice", sid)

        threads = [threading.Thread(target=poll), threading.Thread(target=probe)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not errors, errors
        [polled] = replies["a"]
        assert polled["session"] == sid and polled["outcomes"] == []
        assert polled["done"]  # the wait ended with the session, not a clock
        assert len(replies["b"]) == 5
        assert all(reply.get("ok") is True for reply in replies["b"])
        counters, _ = client.counters_snapshot()
        assert counters["connections"] == 2
        assert wire(app) == {"connections": 2, "requests": 7}


def test_two_threads_sharing_a_client_never_share_a_connection(monkeypatch):
    check_two_threads_never_share_a_connection(monkeypatch)


# ----------------------------------------------------------------------
# (c) a connection the daemon closed while idle is never reused
# ----------------------------------------------------------------------
def check_idle_close_is_detected_before_reuse(monkeypatch):
    monkeypatch.setattr(ServeHandler, "timeout", 0.2)
    with serving() as (app, url), ServeClient(url, "alice") as client:
        assert answered(client.healthz)["ok"]
        [conn] = client._idle
        # the daemon's idle timeout closes it: the client's end reads EOF
        assert select.select([conn.sock], [], [], 10.0)[0]
        assert answered(client.healthz)["ok"]
        counters, _ = client.counters_snapshot()
        assert counters["transport_errors"] == 0
        assert counters["connections"] == 2
        assert wire(app) == {"connections": 2, "requests": 2}


def test_connection_closed_while_idle_is_detected_before_reuse(monkeypatch):
    check_idle_close_is_detected_before_reuse(monkeypatch)


# ----------------------------------------------------------------------
# (d) chaos on a reused connection: one counted failure per attempt
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fault", ["reset_prob", "truncate_prob"])
def test_chaos_on_a_reused_connection_is_one_transport_failure(fault):
    with serving() as (app, url):
        client = ServeClient(
            url, "alice", retry=RetryPolicy(max_attempts=2, base_s=0.01)
        )
        assert client.healthz()["ok"]  # opens connection 1 and keeps it
        app.chaos = WireChaosPlane(WireChaos(**{fault: 1.0}), seed=1)
        # attempt 1 on the reused connection, attempt 2 on a fresh one
        with pytest.raises(WireError) as info:
            client.healthz()
        assert info.value.code == "daemon-unreachable"
        counters, attempts = client.counters_snapshot()
        assert counters["transport_errors"] == 2
        assert counters["retries"] == 1
        assert counters["connections"] == 2
        assert attempts == [1, 2]
        assert client._idle == []  # neither failed connection was kept
        app.chaos = None
        assert client.healthz()["ok"]
        counters, _ = client.counters_snapshot()
        assert counters["connections"] == 3
        assert counters["transport_errors"] == 2
        assert wire(app) == {"connections": 3, "requests": 4}
        client.close()


# ----------------------------------------------------------------------
# an error answered before the body is parsed leaves the connection clean
# ----------------------------------------------------------------------
def check_early_error_leaves_connection_reusable(monkeypatch, case="chaos"):
    """A POST refused before its route reads the body — a chaos-injected
    503, a missing token, an unknown route — must not leave that body on
    the wire, where it would be parsed as the next request."""
    token = "" if case == "no-token" else "alice"
    path = "/no/such/route" if case == "route" else "/sessions"
    with serving() as (app, url), ServeClient(url, token) as client:
        if case == "chaos":
            app.chaos = WireChaosPlane(WireChaos(error_prob=1.0), seed=1)
        status, payload = answered(client.request, "POST", path, dict(PAYLOAD))
        code = {"chaos": "chaos-injected", "no-token": "missing-token",
                "route": "unknown-route"}[case]
        assert payload["error"]["code"] == code, payload
        app.chaos = None
        assert answered(client.healthz)["ok"]
        counters, _ = client.counters_snapshot()
        assert counters["transport_errors"] == 0
        assert counters["connections"] == 1
        assert wire(app) == {"connections": 1, "requests": 2}


@pytest.mark.parametrize("case", ["chaos", "no-token", "route"])
def test_early_error_leaves_the_connection_reusable(case, monkeypatch):
    check_early_error_leaves_connection_reusable(monkeypatch, case)


# ----------------------------------------------------------------------
# (e) one write per response, TCP_NODELAY on the socket
# ----------------------------------------------------------------------
class RecordingSocket:
    """Just enough of a socket for one handler: canned request bytes in,
    every write and socket option recorded."""

    def __init__(self, requests):
        self._requests = requests
        self.writes = []
        self.options = []

    def makefile(self, mode, buffering=None):
        return io.BytesIO(self._requests)

    def sendall(self, data):
        self.writes.append(bytes(data))

    def settimeout(self, timeout):
        pass

    def setsockopt(self, *option):
        self.options.append(option)


def check_each_response_is_one_write(monkeypatch):
    app = ServeApp(tiny_spec(), time_scale=0.0)
    sock = RecordingSocket(
        b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        b"GET /no/such/route HTTP/1.1\r\nHost: x\r\n\r\n"
    )
    try:
        ServeHandler(sock, ("127.0.0.1", 0), SimpleNamespace(app=app))
        assert wire(app) == {"connections": 1, "requests": 2}
    finally:
        app.finish()
    assert (socket.IPPROTO_TCP, socket.TCP_NODELAY, True) in sock.options
    assert len(sock.writes) == 2
    for write, (status, key) in zip(sock.writes, [(200, "ok"), (404, "error")]):
        head, _, body = write.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 %d " % status)
        assert key in json.loads(body)


def test_each_response_reaches_the_socket_in_one_write(monkeypatch):
    check_each_response_is_one_write(monkeypatch)


def test_http09_request_gets_the_bare_body():
    app = ServeApp(tiny_spec(), time_scale=0.0)
    sock = RecordingSocket(b"GET /healthz\r\n\r\n")
    try:
        ServeHandler(sock, ("127.0.0.1", 0), SimpleNamespace(app=app))
    finally:
        app.finish()
    [write] = sock.writes
    assert json.loads(write)["ok"] is True


# ----------------------------------------------------------------------
# the properties are strong enough to tell
# ----------------------------------------------------------------------
#: name -> (class, method, its text to replace, replacement, the check
#: that has to notice)
MUTATIONS = {
    "pool hands one connection to two threads": (
        ServeClient,
        "_connection",
        "self._idle.pop()",
        "self._idle[-1]",
        check_two_threads_never_share_a_connection,
    ),
    "reused connection not checked for close": (
        ServeClient,
        "_connection",
        "if not _dropped(conn):",
        "if True:",
        check_idle_close_is_detected_before_reuse,
    ),
    "response written in two parts": (
        ServeHandler,
        "_send_json",
        'self._headers_buffer.append(b"\\r\\n" + body)',
        "self.end_headers(); self.wfile.write(body)",
        check_each_response_is_one_write,
    ),
    "error answered with the body unread": (
        ServeHandler,
        "_dispatch",
        "self._raw_body = self._read_body()",
        "self._raw_body = None if inject_error else self._read_body()",
        check_early_error_leaves_connection_reusable,
    ),
}


@pytest.mark.parametrize("name", MUTATIONS)
def test_property_fails_under_named_mutations(name, monkeypatch):
    """With any of the mutants in the method's place, its check fails."""
    owner, method, old, new, check = MUTATIONS[name]
    check(monkeypatch)  # the check passes on the real method
    mutate(monkeypatch, owner, method, old, new)
    with pytest.raises(AssertionError):
        check(monkeypatch)
