"""The crash-safe op log (WAL) and idempotent submits.

The WAL's contract: every committed op is appended before the response
leaves the daemon, fsynced every ``flush_every`` ops, and a SIGKILL at
any moment leaves a flushed prefix that replays bit-identically (at
worst one partially written tail line, which the reader drops).
Idempotency closes the remaining hole — a committed submit whose
response died on the wire can be retried without double-admitting.
"""

import errno
import json
import os

import pytest

from repro.api.admission import AdmissionDecision
from repro.api.scenarios import ScenarioSpec
from repro.cli import main
from repro.serve.daemon import ServeApp
from repro.serve.errors import WireError
from repro.serve.log import SubmissionLog, read_log, verify_log


def tiny_spec(**overrides):
    data = {
        "name": "wal-tiny",
        "description": "WAL test world",
        "mode": "jit",
        "seed": 2,
        "duration_s": 12.0,
        "requests": [],
    }
    data.update(overrides)
    return ScenarioSpec.from_dict(data)


PAYLOAD = {"radius_m": 60.0, "period_s": 2.0, "freshness_s": 1.0}


def record(log, sid, start=0.0):
    log.record_submit(
        now=start,
        session=sid,
        payload=dict(PAYLOAD),
        decision=AdmissionDecision.accept(),
    )


# ----------------------------------------------------------------------
# The WAL file itself
# ----------------------------------------------------------------------
def test_wal_writes_header_then_ops_and_tracks_flushes(tmp_path):
    path = str(tmp_path / "test.wal")
    log = SubmissionLog(tiny_spec(), wal_path=path, flush_every=2)
    assert log.flushed_ops == 0
    record(log, 1)
    assert (log.written_ops, log.flushed_ops) == (1, 0)  # below the interval
    record(log, 2, start=1.0)
    assert (log.written_ops, log.flushed_ops) == (2, 2)
    log.close_wal()
    lines = open(path, encoding="utf-8").read().splitlines()
    assert len(lines) == 3
    header = json.loads(lines[0])
    assert header["format"] == "repro-serve-wal/1"
    assert header["scenario"]["name"] == "wal-tiny"
    assert json.loads(lines[1])["op"] == "submit"


def test_wal_flush_every_validation(tmp_path):
    with pytest.raises(ValueError):
        SubmissionLog(tiny_spec(), wal_path=str(tmp_path / "x.wal"), flush_every=0)


def test_partial_loader_recovers_full_and_truncated_wals(tmp_path):
    path = str(tmp_path / "crash.wal")
    log = SubmissionLog(tiny_spec(), wal_path=path, flush_every=1)
    record(log, 1)
    log.record_cancel(now=3.0, session=1)
    log.close_wal()

    data = read_log(path)
    assert [op["op"] for op in data["ops"]] == ["submit", "cancel"]
    assert data["fingerprints"] is None and not data["torn"]
    ok, first, second = verify_log(data)
    assert ok and first == second
    assert len(first["sessions"]) == 1

    # Simulate the SIGKILL: chop the file mid-way through the last line.
    raw = open(path, "rb").read()
    with open(path, "wb") as fh:
        fh.write(raw[: len(raw) - 7])
    data = read_log(path)
    assert [op["op"] for op in data["ops"]] == ["submit"]
    assert data["torn"]
    ok, first, second = verify_log(data)
    assert ok, f"prefix replay diverged:\n{first}\n{second}"


def test_partial_loader_rejects_missing_or_alien_headers(tmp_path):
    empty = tmp_path / "empty.wal"
    empty.write_text("")
    with pytest.raises(ValueError):
        read_log(str(empty))
    alien = tmp_path / "alien.wal"
    alien.write_text('{"format": "something-else/9"}\n')
    with pytest.raises(ValueError):
        read_log(str(alien))
    garbage = tmp_path / "garbage.wal"
    garbage.write_text("not json at all\n")
    with pytest.raises(ValueError):
        read_log(str(garbage))


# ----------------------------------------------------------------------
# Daemon integration: an abandoned (never drained) app leaves a WAL
# ----------------------------------------------------------------------
def test_abandoned_daemon_wal_replays_bit_identically(tmp_path):
    path = str(tmp_path / "SERVE_killed.wal")
    app = ServeApp(tiny_spec(), time_scale=0.0, wal_path=path, wal_flush_every=1)
    first = app.submit("alice", dict(PAYLOAD))
    second = app.submit("bob", dict(PAYLOAD))
    app.cancel("bob", second["session"])
    # No drain, no finish, no close — the process "dies" here.  Every op
    # was flushed (flush_every=1), so the whole log is the prefix.
    data = read_log(path)
    assert [op["op"] for op in data["ops"]] == ["submit", "submit", "cancel"]
    submits = [op for op in data["ops"] if op["op"] == "submit"]
    assert {op["session"] for op in submits} == {
        first["session"], second["session"],
    }
    ok, a, b = verify_log(data)
    assert ok, f"prefix replay diverged:\n{a}\n{b}"


def test_cli_replay_partial_exit_codes(tmp_path, capsys):
    path = str(tmp_path / "SERVE_cli.wal")
    app = ServeApp(tiny_spec(), time_scale=0.0, wal_path=path, wal_flush_every=1)
    app.submit("alice", dict(PAYLOAD))
    assert main(["replay", path]) == 0
    out = capsys.readouterr().out
    assert "partial replay ok" in out
    assert main(["replay", str(tmp_path / "missing.wal")]) == 2


# ----------------------------------------------------------------------
# Idempotent submits (the retry-safety half of the WAL story)
# ----------------------------------------------------------------------
def test_duplicate_idempotency_key_returns_same_session_one_log_op():
    app = ServeApp(tiny_spec(), time_scale=0.0)
    first = app.submit("alice", dict(PAYLOAD), idempotency_key="alice.1")
    replayed = app.submit("alice", dict(PAYLOAD), idempotency_key="alice.1")
    assert replayed == first
    assert replayed is not first  # a defensive copy, not the cached dict
    assert app.log.written_ops == 1
    assert app.backend.stats().submitted == 1
    # A different key is a genuinely new submit.
    third = app.submit("alice", dict(PAYLOAD), idempotency_key="alice.2")
    assert third["session"] != first["session"]
    assert app.log.written_ops == 2
    # Keys are scoped per tenant: bob's "alice.1" is his own.
    fourth = app.submit("bob", dict(PAYLOAD), idempotency_key="alice.1")
    assert fourth["session"] != first["session"]
    stats = app.stats_payload()["server"]["idempotency"]
    assert stats == {"entries": 3, "hits": 1}
    app.start()
    app.begin_drain()
    assert app.wait_drained(60.0)
    app.finish()


def test_rejected_verdicts_are_cached_by_idempotency_key_too():
    # A per-area cap of one plus two users pinned to the same patrol
    # path forces a deterministic rejection for the second submit.
    spec = tiny_spec(
        admission={"policy": "per-area-cap", "max_overlapping": 1}
    )
    app = ServeApp(spec, time_scale=0.0)
    payload = dict(PAYLOAD)
    payload["path"] = {
        "kind": "patrol",
        "waypoints": [[200.0, 200.0], [260.0, 200.0]],
        "speed": 2.0,
        "loops": 4,
    }
    admitted = app.submit("alice", dict(payload), idempotency_key="a.1")
    assert admitted["status"] == "admitted"
    rejected = app.submit("alice", dict(payload), idempotency_key="a.2")
    assert rejected["status"] == "rejected"
    # The rejected submit consumed a decision (it IS logged); replaying
    # its key must return the cached verdict, not re-ask admission.
    again = app.submit("alice", dict(payload), idempotency_key="a.2")
    assert again == rejected
    assert app.log.written_ops == 2
    app.start()
    app.begin_drain()
    assert app.wait_drained(60.0)
    app.finish()


# ----------------------------------------------------------------------
# A WAL that cannot be written ends the op stream
# ----------------------------------------------------------------------
class FullDisk:
    """The WAL's file on a full disk: the next ``failures`` writes raise
    ``ENOSPC``; after that the disk has room again."""

    def __init__(self, wal, failures):
        self._wal = wal
        self.failures = failures

    def write(self, text):
        if self.failures:
            self.failures -= 1
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return self._wal.write(text)

    def __getattr__(self, name):
        return getattr(self._wal, name)


def test_a_failed_wal_write_stops_the_op_stream(tmp_path):
    path = str(tmp_path / "SERVE_full.wal")
    app = ServeApp(tiny_spec(), time_scale=0.0, wal_path=path, wal_flush_every=1)
    first = app.submit("alice", dict(PAYLOAD))
    app.log._wal = FullDisk(app.log._wal, failures=1)
    # The submit the WAL lost is refused, and so is every op after it,
    # though the disk has room again: the log must stay a prefix.
    for op in (
        lambda: app.submit("bob", dict(PAYLOAD)),
        lambda: app.submit("carol", dict(PAYLOAD)),
        lambda: app.cancel("alice", first["session"]),
    ):
        with pytest.raises(WireError) as refused:
            op()
        assert refused.value.code == "service-closed"
    assert app.healthz()["ok"] is False
    app.start()
    assert app.wait_drained(60.0)
    summary = app.finish()
    assert summary["fingerprints"] is None
    assert summary["sessions"]["submitted"] == 1
    data = read_log(path)
    assert [op["op"] for op in data["ops"]] == ["submit"]
    ok, a, b = verify_log(data)
    assert ok, f"prefix replay diverged:\n{a}\n{b}"


def test_a_failed_retire_record_leaves_the_pump_serving(tmp_path):
    path = str(tmp_path / "SERVE_full.wal")
    app = ServeApp(tiny_spec(), time_scale=0.0, wal_path=path, wal_flush_every=1)
    first = app.submit("alice", dict(PAYLOAD))
    app.log._wal = FullDisk(app.log._wal, failures=10**9)
    app.start()
    # The session runs out and the pump's retire record fails: the pump
    # retires it all the same and keeps running.
    assert app.wait_drained(60.0)
    assert app._pump.is_alive()
    assert app.results("alice", first["session"])["done"]
    assert app.healthz()["ok"] is False
    with pytest.raises(WireError) as refused:
        app.submit("bob", dict(PAYLOAD))
    assert refused.value.code == "service-closed"
    assert app.finish()["fingerprints"] is None
    ok, a, b = verify_log(read_log(path))
    assert ok, f"prefix replay diverged:\n{a}\n{b}"
