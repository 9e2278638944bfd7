"""The daemon's op log — and the replay that proves the wire.

Every request the daemon accepts *or rejects*, and every session it
retires, is appended as one op: ``("submit", sim_now, payload,
decision)`` / ``("cancel", sim_now, session)`` / ``("retire", sim_now,
session)``.  That ordered log plus the scenario spec is a complete
deterministic description of the run: rebuilding the backend with a
:class:`~repro.cluster.transport.ReplayAdmissionPolicy` over the
recorded decisions, advancing the clock to each op's recorded sim time,
and re-applying the ops reproduces the live run bit for bit — the same
sessions, the same frame and event counters.  (Rejected submissions are
replayed too: path synthesis consumes mobility-RNG draws before the
admission verdict, so skipping one would desynchronise every later
draw.  A ``retire`` is no client request but changes the world like
one: from that instant the finished session's proxy no longer receives,
collides or carrier-senses, so replay releases it at the same instant.
A log written before the daemon retired sessions has no such op and
replays as it always did.)

One writer: :class:`SubmissionLog` appends each op to a JSONL
write-ahead log (``SERVE_<name>.wal``: a header line with the scenario,
then one line per op) as it commits, fsync'd every ``flush_every`` ops,
and keeps nothing in memory.  A SIGKILL'd daemon leaves a readable
flushed prefix on disk; a drained one renders the closed WAL, with the
run's fingerprints and summary, as ``SERVE_<name>.json``
(:func:`render_log`).

One reader: :func:`read_log` takes either file, and :func:`verify_log`
proves it — ``repro replay`` runs both.  A drained log carries the live
run's fingerprints and one replay must reproduce them; a WAL carries
none (nothing survives a SIGKILL but the ops), so the proof replays its
prefix twice and compares.  Either way the wire layer provably adds no
physics.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Optional, Tuple

from ..api.admission import AdmissionDecision
from ..api.backend import BackendStats
from ..api.scenarios import ScenarioSpec, build_backend, request_from_payload
from ..api.service import SessionHandle
from ..cluster.transport import (
    ReplayAdmissionPolicy,
    decision_from_dict,
    decision_to_dict,
)
from ..workload.engine import WorkloadResult

#: the log's format tag (bump on incompatible changes)
LOG_FORMAT = "repro-serve-log/1"
#: the write-ahead log's format tag (JSONL: header line, then op lines)
WAL_FORMAT = "repro-serve-wal/1"


def result_fingerprints(
    workload: WorkloadResult, stats: BackendStats
) -> Dict:
    """What live and replayed runs must agree on, bit for bit.

    Per-session scores plus the physics counters — all JSON-exact
    (floats round-trip, ints stay ints), so a fingerprint read back from
    disk compares equal to a freshly computed one.
    """
    return {
        "sessions": [
            [s.user_id, s.success_ratio, s.deliveries, s.degraded_periods]
            for s in workload.sessions
        ],
        "frames_sent": stats.frames_sent,
        "frames_collided": stats.frames_collided,
        "frames_delivered": stats.frames_delivered,
    }


class SubmissionLog:
    """The daemon's op log: a JSONL write-ahead log, appended as ops commit.

    The file is the only record of the ops.  They are fsync'd every
    ``flush_every`` ops (the durability/throughput dial).  Callers hold
    the daemon's app lock around ``record_*``, so the file needs no lock
    of its own.  The first ``OSError`` (a full or read-only disk) is kept
    in ``error`` and raised again by every later ``record_*``: nothing
    more is written, so the file stays the prefix a SIGKILL would leave.
    """

    def __init__(
        self, spec: ScenarioSpec, wal_path: str, flush_every: int = 1
    ) -> None:
        if flush_every < 1:
            raise ValueError(f"flush_every must be >= 1, got {flush_every}")
        self.wal_path = wal_path
        self.flush_every = int(flush_every)
        #: ops written so far, and how many of them are durably on disk
        #: (survive SIGKILL)
        self.written_ops = 0
        self.flushed_ops = 0
        self.error: Optional[OSError] = None
        self._wal = open(wal_path, "w", encoding="utf-8")
        self._wal.write(
            json.dumps(
                {"format": WAL_FORMAT, "scenario": spec.to_dict()},
                sort_keys=True,
            )
            + "\n"
        )
        self._flush()

    def _flush(self) -> None:
        self._wal.flush()
        os.fsync(self._wal.fileno())
        self.flushed_ops = self.written_ops

    def close_wal(self) -> None:
        """Final flush + close (clean shutdown; a SIGKILL never gets here).

        A failed WAL drops what its buffers still hold, as a SIGKILL
        would: closing the raw file first makes the text layer's close a
        no-op instead of a retried write.
        """
        if self.error is not None:
            self._wal.buffer.raw.close()
            return
        self._flush()
        self._wal.close()

    def record_submit(
        self,
        now: float,
        session: int,
        payload: Dict,
        decision: AdmissionDecision,
    ) -> None:
        self._record(
            {
                "op": "submit",
                "now": now,
                "session": session,
                "payload": payload,
                "decision": decision_to_dict(decision),
            }
        )

    def record_cancel(self, now: float, session: int) -> None:
        self._record({"op": "cancel", "now": now, "session": session})

    def record_retire(self, now: float, session: int) -> None:
        self._record({"op": "retire", "now": now, "session": session})

    def _record(self, op: Dict) -> None:
        if self.error is not None:
            raise self.error
        try:
            self._wal.write(json.dumps(op, sort_keys=True) + "\n")
            self.written_ops += 1
            if self.written_ops - self.flushed_ops >= self.flush_every:
                self._flush()
        except OSError as exc:
            self.error = exc
            raise


def replay_submission_log(data: Dict) -> Dict:
    """Re-execute a log read by :func:`read_log`; return its fingerprints.

    Deterministic: the same log always yields the same fingerprints,
    and they match the live daemon's — that is the acceptance test.
    """
    spec = ScenarioSpec.from_dict(data["scenario"])
    ops = data["ops"]
    decisions = [
        decision_from_dict(op["decision"]) for op in ops if op["op"] == "submit"
    ]
    backend = build_backend(spec, admission=ReplayAdmissionPolicy(decisions))
    handles: Dict[int, SessionHandle] = {}
    clock = 0.0
    for op in ops:
        now = float(op["now"])
        if now > clock:
            backend.advance(now)
            clock = now
        if op["op"] == "submit":
            handles[int(op["session"])] = backend.submit(
                request_from_payload(op["payload"])
            )
        elif op["op"] == "cancel":
            backend.cancel(handles[int(op["session"])])
        elif op["op"] == "retire":
            handle = handles[int(op["session"])]
            handle.service.release_session_state(handle)
        else:
            raise ValueError(f"unknown log op {op['op']!r}")
    workload = backend.close()
    return result_fingerprints(workload, backend.stats())


def read_log(path: str) -> Dict:
    """Read a drained ``SERVE_<name>.json`` or a ``SERVE_<name>.wal``.

    Returns ``{"scenario", "ops", "fingerprints", "torn"}``.  A JSON log
    must carry the live run's fingerprints.  A WAL carries none
    (``fingerprints`` is None): its ops are the lines after the header
    that end in a newline.  Appends are sequential, so a crash can only
    cut the last line; ``torn`` says one was cut, and it is dropped.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    head, _, body = text.partition("\n")
    try:
        header = json.loads(head)
    except ValueError:
        header = None
    if isinstance(header, dict) and header.get("format") == WAL_FORMAT:
        *complete, tail = body.split("\n")
        return {
            "scenario": header["scenario"],
            "ops": [json.loads(line) for line in complete if line.strip()],
            "fingerprints": None,
            "torn": bool(tail.strip()),
        }
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError(f"{path} must hold a JSON object")
    if data.get("format") != LOG_FORMAT:
        raise ValueError(
            f"unsupported log format {data.get('format')!r}; "
            f"expected {LOG_FORMAT!r} or {WAL_FORMAT!r}"
        )
    if data.get("fingerprints") is None:
        raise ValueError(f"{path} carries no fingerprints to verify against")
    return {
        "scenario": data["scenario"],
        "ops": data.get("ops", []),
        "fingerprints": data["fingerprints"],
        "torn": False,
    }


def render_log(wal_path: str, summary: Dict) -> Dict:
    """The drained log ``SERVE_<name>.json`` holds: the closed WAL's
    scenario and ops, the fingerprints their replay must reproduce, and
    the daemon's summary."""
    log = read_log(wal_path)
    return {
        "format": LOG_FORMAT,
        "scenario": log["scenario"],
        "ops": log["ops"],
        "fingerprints": summary["fingerprints"],
        "summary": summary,
    }


def verify_log(log: Dict) -> Tuple[bool, Dict, Dict]:
    """Replay a log read by :func:`read_log` and check the result.

    Returns ``(ok, expected, replayed)``.  ``expected`` is the log's
    recorded fingerprints; a WAL has none, so it is a first replay
    through its own backend, and ``replayed`` the second.  The
    comparison normalises through JSON, so fingerprints read back from
    disk and freshly computed ones compare exactly.
    """
    expected = log["fingerprints"]
    if expected is None:
        expected = replay_submission_log(log)
    replayed = replay_submission_log(log)
    canon = json.loads(json.dumps(expected))
    return canon == json.loads(json.dumps(replayed)), expected, replayed


__all__ = [
    "LOG_FORMAT",
    "WAL_FORMAT",
    "SubmissionLog",
    "read_log",
    "render_log",
    "replay_submission_log",
    "result_fingerprints",
    "verify_log",
]
