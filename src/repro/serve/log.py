"""The daemon's submission log — and the replay that proves the wire.

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

``repro replay SERVE_<name>.json`` runs :func:`verify_submission_log`
to check a recorded run's fingerprints — the wire layer provably adds
no physics.

Crash safety: when constructed with ``wal_path``, the log doubles as an
append-on-commit write-ahead log — every recorded op is appended as one
JSON line and fsync'd every ``flush_every`` ops, so a SIGKILL'd daemon
leaves a readable flushed prefix on disk.  ``repro replay --partial``
loads that prefix with :func:`load_partial_log` (tolerating a line
truncated mid-write by the crash) and :func:`verify_partial_log` proves
it replays bit-identically: no recorded fingerprints survive a SIGKILL,
so the proof replays the prefix twice and compares.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, TextIO, Tuple

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
    """Ordered record of every op a live daemon applied to its backend.

    With ``wal_path`` set the record is also crash-safe: ops are
    appended to a JSONL write-ahead log as they commit and fsync'd every
    ``flush_every`` ops (the durability/throughput dial).  Callers hold
    the daemon's app lock around ``record_*``, so the WAL needs no lock
    of its own.
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        wal_path: Optional[str] = None,
        flush_every: int = 1,
    ) -> None:
        if flush_every < 1:
            raise ValueError(f"flush_every must be >= 1, got {flush_every}")
        self.spec = spec
        self.ops: List[Dict] = []
        self.wal_path = wal_path
        self.flush_every = int(flush_every)
        self._wal: Optional[TextIO] = None
        self._written = 0
        self._unflushed = 0
        #: how many ops are durably on disk (survive SIGKILL)
        self.flushed_ops = 0
        if wal_path is not None:
            self._wal = open(wal_path, "w", encoding="utf-8")
            self._wal.write(
                json.dumps(
                    {"format": WAL_FORMAT, "scenario": spec.to_dict()},
                    sort_keys=True,
                )
                + "\n"
            )
            self._flush_wal()

    def _append_wal(self, op: Dict) -> None:
        if self._wal is None:
            return
        self._wal.write(json.dumps(op, sort_keys=True) + "\n")
        self._written += 1
        self._unflushed += 1
        if self._unflushed >= self.flush_every:
            self._flush_wal()

    def _flush_wal(self) -> None:
        if self._wal is None:
            return
        self._wal.flush()
        os.fsync(self._wal.fileno())
        self.flushed_ops = self._written
        self._unflushed = 0

    def close_wal(self) -> None:
        """Final flush + close (clean shutdown; a SIGKILL never gets here)."""
        if self._wal is not None:
            self._flush_wal()
            self._wal.close()
            self._wal = None

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
                "payload": dict(payload),
                "decision": decision_to_dict(decision),
            }
        )

    def record_cancel(self, now: float, session: int) -> None:
        self._record({"op": "cancel", "now": now, "session": session})

    def record_retire(self, now: float, session: int) -> None:
        self._record({"op": "retire", "now": now, "session": session})

    def _record(self, op: Dict) -> None:
        self.ops.append(op)
        self._append_wal(op)

    def to_dict(self, fingerprints: Optional[Dict] = None) -> Dict:
        data = {
            "format": LOG_FORMAT,
            "scenario": self.spec.to_dict(),
            "ops": list(self.ops),
        }
        if fingerprints is not None:
            data["fingerprints"] = fingerprints
        return data


def replay_submission_log(data: Dict) -> Dict:
    """Re-execute a recorded run in-process; return its fingerprints.

    Deterministic: the same log always yields the same fingerprints,
    and they match the live daemon's — that is the acceptance test.
    """
    if data.get("format") != LOG_FORMAT:
        raise ValueError(
            f"unsupported log format {data.get('format')!r}; "
            f"expected {LOG_FORMAT!r}"
        )
    spec = ScenarioSpec.from_dict(data["scenario"])
    ops = list(data.get("ops", ()))
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


def load_partial_log(path: str) -> Dict:
    """Read a (possibly SIGKILL-truncated) WAL into replayable log form.

    The header line must parse — a WAL whose very first fsync never
    landed is unreadable and raises ``ValueError``.  Op lines are read
    until the first one that does not parse: a crash can only truncate
    the *tail* of the file (appends are sequential), so everything
    before the torn line is exactly the flushed prefix.
    """
    header: Optional[Dict] = None
    ops: List[Dict] = []
    truncated = False
    with open(path, "r", encoding="utf-8") as fh:
        for index, line in enumerate(fh):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                entry = json.loads(stripped)
            except ValueError:
                truncated = True
                break
            if index == 0:
                if not isinstance(entry, dict) or entry.get("format") != WAL_FORMAT:
                    raise ValueError(
                        f"{path} is not a {WAL_FORMAT} write-ahead log "
                        f"(header: {entry!r})"
                    )
                header = entry
            else:
                ops.append(entry)
    if header is None:
        raise ValueError(f"{path} has no readable WAL header line")
    return {
        "format": LOG_FORMAT,
        "scenario": header["scenario"],
        "ops": ops,
        "wal_truncated_tail": truncated,
    }


def verify_partial_log(data: Dict) -> Tuple[bool, Dict, Dict]:
    """Prove a flushed WAL prefix is deterministic: replay it twice.

    A SIGKILL'd daemon wrote no fingerprints, so there is nothing
    recorded to compare against — instead the prefix is re-executed
    through two independently built backends, and bit-identical
    fingerprints from both is the crash-safety guarantee ``repro
    replay --partial`` gates on.
    """
    first = replay_submission_log(data)
    second = replay_submission_log(data)
    canon_first = json.loads(json.dumps(first))
    canon_second = json.loads(json.dumps(second))
    return canon_first == canon_second, first, second


def verify_submission_log(data: Dict) -> Tuple[bool, Optional[Dict], Dict]:
    """Replay a log and compare against its recorded fingerprints.

    Returns ``(ok, recorded, replayed)``; ``recorded`` is None (and
    ``ok`` False) when the log carries no fingerprints to check against.
    The comparison normalises through JSON so a log read back from disk
    and an in-memory one verify identically.
    """
    recorded = data.get("fingerprints")
    replayed = replay_submission_log(data)
    if recorded is None:
        return False, None, replayed
    canon = json.loads(json.dumps(recorded))
    return canon == json.loads(json.dumps(replayed)), recorded, replayed


__all__ = [
    "LOG_FORMAT",
    "WAL_FORMAT",
    "SubmissionLog",
    "load_partial_log",
    "replay_submission_log",
    "result_fingerprints",
    "verify_partial_log",
    "verify_submission_log",
]
