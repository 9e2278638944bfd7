"""``repro serve`` — the always-on query daemon.

One :class:`ServeApp` owns one :class:`~repro.api.backend.QueryBackend`
(single world or regional cluster, whatever the scenario asks for) and
exposes the full session lifecycle over HTTP/JSON:

* ``POST /sessions`` — submit; returns the session id + admission verdict
* ``GET /sessions/{id}/results?after=K&wait=S`` — long-poll outcomes
* ``DELETE /sessions/{id}`` — cancel
* ``GET /stats`` — live backend counters + server latency attribution
* ``GET /healthz`` — liveness

Architecture: **one pump thread owns the simulated clock**.  All backend
mutations — submits, cancels, clock advances — serialize through one
lock, so the kernel never sees concurrent access; HTTP threads
(``ThreadingHTTPServer``) only block on that lock for bounded slices
(``SLICE_S`` simulated seconds per advance).  The pump advances the sim
toward the earliest unharvested period deadline, paced against wall
time by ``time_scale`` (simulated seconds per wall second; 0 = free-run),
and harvests each period outcome into the owning session's bounded
:class:`~repro.serve.ring.ResultRing` the moment its deadline passes.

Tenancy: every request carries an ``X-Repro-Token`` header; a session
belongs to the token that created it, and any access with another token
is a typed ``foreign-session`` error — existence is admitted (404 vs 403
distinguishes unknown from foreign) but nothing else leaks.

A session ends everywhere at once: the moment the pump harvests a
session's last outcome into its ring it *retires* the session — scores
it and releases its proxy and in-network state through
:meth:`~repro.api.service.MobiQueryService.release_session_state`, the
teardown a cancel performs — so the world the pump advances, and every
per-submit and per-slice walk over sessions, carries the sessions live
now, not every session ever served.

Determinism: every submit (accepted *and* rejected), cancel **and
retire** is appended to the write-ahead log ``SERVE_<name>.wal`` as it
commits (:class:`~repro.serve.log.SubmissionLog`; the daemon keeps no
other record of its ops); replaying that log in-process reproduces the
daemon's sessions and physics counters bit for bit.  ``SIGTERM`` drains:
new submits get 503, live sessions run to completion (bounded by
``--drain-timeout``, stragglers are recorded force-cancels), the backend
closes into a final :class:`~repro.workload.engine.WorkloadResult`, and
``SERVE_<name>.json`` renders the closed WAL's ops with the run's
fingerprints and summary.

Transport: connections persist (HTTP/1.1 keep-alive), so a client pays
for one TCP connection and one handler thread, not one per request.
Every response — status line, headers and body — leaves in one write on
a socket with ``TCP_NODELAY`` set.  Written in two parts on a kept-alive
socket, the body waited in Nagle's algorithm for the peer's delayed ACK
of the header block: on a 2-CPU box a keep-alive client measured
serve-paced ``submit_p90_ms`` at 36–48 ms against 8–28 ms with a
connection per request.  A request's body is read before anything can
answer it — a typed error refused before the route parses it included —
so no leftover body is ever parsed as the next request.  A connection
left idle for
:data:`IDLE_TIMEOUT_S` is closed, so an abandoned client pins a handler
thread for that long at most; ``GET /stats`` counts connections
accepted and requests dispatched under ``server.http``.
"""

from __future__ import annotations

import itertools
import json
import os
import signal
import tempfile
import threading
import time
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional
from urllib.parse import parse_qs, urlsplit

from ..api.scenarios import ScenarioSpec, build_backend
from ..api.service import HorizonPassedError, SessionHandle
from ..faults.sweep import leak_census
from .chaos import WireChaosPlane
from .edge import EdgeConfig, EdgeGuard
from .errors import WireError, map_exception
from .log import SubmissionLog, render_log, result_fingerprints
from .ring import ResultRing
from .wire import outcome_to_wire, request_from_wire, summarize

#: how far one pump advance may run, in simulated seconds
SLICE_S = 0.5
#: simulated seconds per wall second (0 disables pacing — free-run)
DEFAULT_TIME_SCALE = 8.0
#: hard cap on one long-poll wait
MAX_WAIT_S = 30.0
#: a kept-alive connection with no request for this long is closed (well
#: above MAX_WAIT_S, so a client between long-polls is never cut off)
IDLE_TIMEOUT_S = 120.0
#: how often the HTTP server checks for shutdown — the last step of a
#: drain waits out at most one interval
SERVE_POLL_S = 0.05
#: the largest request body a handler thread will read (a submit with a
#: long waypoint list is a few KiB); longer, negative or non-integer
#: Content-Lengths are refused before a byte of body is read
MAX_BODY_BYTES = 1 << 20
#: the tenancy header
TOKEN_HEADER = "X-Repro-Token"
#: the submit-dedup header: a retried POST /sessions with the same key
#: returns the stored first response instead of double-admitting
IDEMPOTENCY_HEADER = "X-Repro-Idempotency-Key"
#: latency samples kept per endpoint for ``/stats``
ENDPOINT_SAMPLES = 2048


def _log_stem(name: str) -> str:
    """``SERVE_<name>``, the daemon's file stem (``/`` and spaces as ``-``)."""
    return "SERVE_" + name.replace("/", "-").replace(" ", "-")


class _EndpointTimer:
    """Per-endpoint request-latency sample (bounded memory)."""

    def __init__(self) -> None:
        self.count = 0
        self.samples_ms: deque = deque(maxlen=ENDPOINT_SAMPLES)

    def note(self, ms: float) -> None:
        self.count += 1
        self.samples_ms.append(ms)

    def snapshot(self) -> Dict:
        summary = summarize(list(self.samples_ms)) or {}
        summary["count"] = self.count
        return summary


class _Session:
    """Server-side session state: owner token, handle, result ring."""

    def __init__(
        self, sid: int, token: str, handle: SessionHandle, ring: ResultRing
    ) -> None:
        self.sid = sid
        self.token = token
        self.handle = handle
        self.ring = ring
        #: next period the pump will harvest (1-based)
        self.next_k = 1


class ServeApp:
    """The daemon's brain, independent of HTTP: sessions, pump, drain.

    Tests drive this object directly; :class:`ServeHandler` is a thin
    JSON shim over it.  Without ``wal_path`` the op log goes to a
    temporary file the app owns, removed with the app.
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        ring_capacity: int = 256,
        time_scale: float = DEFAULT_TIME_SCALE,
        edge: Optional[EdgeConfig] = None,
        wal_path: Optional[str] = None,
        wal_flush_every: int = 8,
    ) -> None:
        if time_scale < 0:
            raise ValueError(f"time_scale must be >= 0, got {time_scale}")
        self.spec = spec
        self.ring_capacity = ring_capacity
        self.time_scale = time_scale
        self.backend = build_backend(spec)
        if wal_path is None:
            self._scratch = tempfile.TemporaryDirectory(prefix="repro-serve-")
            wal_path = os.path.join(self._scratch.name, "ops.wal")
        self.log = SubmissionLog(
            spec, wal_path=wal_path, flush_every=wal_flush_every
        )
        self.edge = EdgeGuard(edge if edge is not None else EdgeConfig())
        # The wire-chaos plane exists only when the scenario's fault plan
        # carries a non-empty wire section; otherwise no stream is even
        # constructed — absent and empty sections are the same daemon.
        wire = spec.fault_plan().wire
        self.chaos: Optional[WireChaosPlane] = (
            WireChaosPlane(wire, spec.seed)
            if wire is not None and not wire.empty
            else None
        )
        self.sessions: Dict[int, _Session] = {}
        #: the admitted sessions still owed outcomes, by session id — what
        #: the pump, the edge guard and the drain walk instead of
        #: ``sessions``; a session not in it (retired, cancelled, rejected)
        #: will never get another outcome
        self._live: Dict[int, _Session] = {}
        self._retired = 0
        self._idempotent: Dict[tuple, Dict] = {}
        self._idempotent_hits = 0
        self._sids = itertools.count(1)
        self._lock = threading.RLock()
        self._work = threading.Condition(self._lock)
        self._stop = threading.Event()
        self._pump: Optional[threading.Thread] = None
        self._draining = False
        self._finished = False
        self.summary: Optional[Dict] = None
        self._started_wall = time.monotonic()
        # pacing anchor: (wall, sim) of the last idle->busy transition
        self._anchor: Optional[tuple] = None
        self._slices = 0
        self._advance_wall_s = 0.0
        self._timers: Dict[str, _EndpointTimer] = {}
        # Counted before a request is served, so under a lock of their
        # own: a new connection never waits out a pump slice.
        self._http = {"connections": 0, "requests": 0}
        self._http_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    def _services(self) -> List:
        """The underlying world service(s) — one, or every shard."""
        shard_services = getattr(self.backend, "services", None)
        return list(shard_services) if shard_services is not None else [
            self.backend
        ]

    def _now(self) -> float:
        """The backend's simulated clock (min over shards in lockstep)."""
        return min(service.sim.now for service in self._services())

    def _registered_mobiles(self) -> int:
        """Proxies listening on the shards' channels — the live admitted
        sessions and no more, while every finished one was retired."""
        return sum(
            len(service.network.channel.mobile_ids())
            for service in self._services()
        )

    def note_latency(self, endpoint: str, ms: float) -> None:
        with self._lock:
            self._timers.setdefault(endpoint, _EndpointTimer()).note(ms)

    def note_http(self, key: str) -> None:
        """One more accepted ``"connections"`` or dispatched ``"requests"``."""
        with self._http_lock:
            self._http[key] += 1

    def _pump_lag_locked(self) -> float:
        """How far the pump trails its pacing schedule, in wall seconds.

        0 when free-running (``time_scale == 0``) or idle (no anchor):
        with no schedule there is nothing to fall behind.  Caller holds
        the app lock.
        """
        if self.time_scale <= 0 or self._anchor is None:
            return 0.0
        wall = time.monotonic()
        allowed = self._anchor[1] + (wall - self._anchor[0]) * self.time_scale
        return max(0.0, (allowed - self._now()) / self.time_scale)

    # ------------------------------------------------------------------
    # The pump thread: the only thing that advances the clock
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the pump thread (idempotent)."""
        if self._pump is None:
            self._pump = threading.Thread(
                target=self._pump_loop, name="serve-pump", daemon=True
            )
            self._pump.start()

    def _live_sessions(self) -> List[_Session]:
        return list(self._live.values())

    def _end_session(self, sess: _Session) -> None:
        """No more outcomes will arrive: close the ring, leave the live set."""
        sess.ring.close()
        self._live.pop(sess.sid, None)

    def _next_deadline(self) -> Optional[float]:
        """The earliest unharvested period deadline, over live sessions."""
        # every live session is owed at least one more outcome
        return min(
            (s.handle.spec.deadline(s.next_k) for s in self._live.values()),
            default=None,
        )

    def _harvest(self) -> None:
        """Move every due period outcome into its session's ring, and
        retire each session whose last outcome that was."""
        now = self._now()
        for sess in self._live_sessions():
            handle = sess.handle
            spec = handle.spec
            assert spec is not None
            while sess.next_k <= spec.num_periods:
                deadline = spec.deadline(sess.next_k)
                if (
                    handle.cancelled_at is not None
                    and deadline > handle.cancelled_at
                ):
                    self._end_session(sess)
                    break
                if deadline > now + 1e-9:
                    break
                sess.ring.append(
                    outcome_to_wire(handle.period_outcome(sess.next_k))
                )
                sess.next_k += 1
            else:  # ran out of periods: that was its last outcome
                handle.service.release_session_state(handle)
                self._append(self.log.record_retire, now, sess.sid)
                self._retired += 1
                self._end_session(sess)
        self._work.notify_all()

    def _pump_loop(self) -> None:
        while not self._stop.is_set():
            with self._work:
                self._harvest()
                deadline = self._next_deadline()
                if deadline is None:
                    # Idle: drop the pacing anchor so waiting for clients
                    # doesn't bank "allowed" sim time to sprint through.
                    self._anchor = None
                    self._work.wait(0.05)
                    continue
                now = self._now()
                target = min(deadline, now + SLICE_S)
                if self.time_scale > 0 and not self._draining:
                    wall = time.monotonic()
                    if self._anchor is None:
                        self._anchor = (wall, now)
                    allowed = (
                        self._anchor[1]
                        + (wall - self._anchor[0]) * self.time_scale
                    )
                    if target > allowed:
                        self._work.wait(
                            min((target - allowed) / self.time_scale, 0.25)
                        )
                        continue
                t0 = time.perf_counter()
                self.backend.advance(target)
                self._advance_wall_s += time.perf_counter() - t0
                self._slices += 1
                self._harvest()

    # ------------------------------------------------------------------
    # The wire operations (HTTP handler + tests call these)
    # ------------------------------------------------------------------
    def submit(
        self,
        token: str,
        payload: object,
        idempotency_key: Optional[str] = None,
    ) -> Dict:
        """POST /sessions: shed, validate, admit, record; never corrupts replay.

        Order matters for determinism.  The edge guard sheds *first* —
        before validation, the backend, and the log — so a rate-limited
        or overloaded submit consumes zero RNG draws and leaves zero
        state (replay never sees it).  A start past the horizon is
        refused by ``backend.submit`` itself (``HorizonPassedError``)
        before it synthesises a walk, so that refusal draws nothing and
        is not logged either.  Rejections by the admission policy *are*
        recorded: they consumed draws, so replay must repeat them.

        A repeated ``idempotency_key`` (same token) returns the stored
        first response verbatim: a client retrying a submit whose
        response was lost on the wire can never double-admit.
        """
        with self._work:
            if self._finished:
                raise WireError(
                    "service-closed", "the daemon has shut down"
                )
            self._refuse_without_wal()
            if self._draining:
                raise WireError(
                    "draining",
                    "the daemon is draining (SIGTERM); no new sessions",
                )
            if idempotency_key is not None:
                cached = self._idempotent.get((token, idempotency_key))
                if cached is not None:
                    self._idempotent_hits += 1
                    return dict(cached)
            self.edge.admit(
                token,
                live_sessions=len(self._live),
                pump_lag_s=self._pump_lag_locked(),
            )
            request = request_from_wire(payload)
            now = self._now()
            try:
                handle = self.backend.submit(request)
            except HorizonPassedError as exc:
                raise map_exception(exc) from None
            sid = next(self._sids)
            # The log needs every admission verdict, in order, to replay
            # the run bit-identically.
            if not self._append(
                self.log.record_submit, now, sid, payload, handle.decision
            ):
                # The WAL lost it: the world drops it too.
                self.backend.cancel(handle)
                self._refuse_without_wal()
            ring = ResultRing(self.ring_capacity)
            sess = _Session(sid, token, handle, ring)
            self.sessions[sid] = sess
            if not handle.accepted:
                self._end_session(sess)
                resp = {
                    "session": sid,
                    "status": handle.status,
                    "reason": handle.reason,
                    "now": now,
                    "error": {
                        "code": "admission-rejected",
                        "message": handle.reason,
                    },
                }
            else:
                self._live[sid] = sess
                self._work.notify_all()
                spec = handle.spec
                assert spec is not None
                resp = {
                    "session": sid,
                    "status": handle.status,
                    "user_id": spec.user_id,
                    "start_s": spec.start_s,
                    "period_s": spec.period_s,
                    "num_periods": spec.num_periods,
                    "now": now,
                }
            if idempotency_key is not None:
                # Both verdicts are cached: a rejected submit consumed
                # admission/mobility draws too, and retrying it must not
                # consume them again.
                self._idempotent[(token, idempotency_key)] = dict(resp)
            return resp

    def _append(self, record, *args) -> bool:
        """Log one op through ``record``; False once the WAL has failed.

        A WAL that raised ``OSError`` (a full or read-only disk) holds the
        ops before the one it lost and never another: the app takes no
        more ops, ``/healthz`` says ``ok: false`` and :meth:`finish` signs
        no fingerprints.  The pump keeps serving the sessions it has.
        """
        try:
            record(*args)
        except OSError:
            return False
        return True

    def _refuse_without_wal(self) -> None:
        if self.log.error is not None:
            raise WireError(
                "service-closed",
                f"the op log cannot be written ({self.log.error}); "
                "the daemon takes no more ops",
            )

    def _owned(self, token: str, sid: int) -> _Session:
        """The caller's session, or a typed unknown/foreign error."""
        sess = self.sessions.get(sid)
        if sess is None:
            raise WireError("unknown-session", f"no session {sid}")
        if sess.token != token:
            raise WireError(
                "foreign-session",
                f"session {sid} belongs to another client",
            )
        return sess

    def results(
        self, token: str, sid: int, after: int = 0, wait_s: float = 0.0
    ) -> Dict:
        """GET /sessions/{id}/results: long-poll outcomes after period K."""
        with self._lock:
            sess = self._owned(token, sid)
        wait = max(0.0, min(wait_s, MAX_WAIT_S))
        # The ring has its own lock: a blocked reader never holds the
        # app lock, so the pump and other clients keep moving.
        items, missed, done = sess.ring.read(after_k=after, wait_s=wait)
        with self._lock:
            status = sess.handle.status
        return {
            "session": sid,
            "outcomes": items,
            "missed": missed,
            "done": done,
            "status": status,
        }

    def cancel(self, token: str, sid: int) -> Dict:
        """DELETE /sessions/{id}: idempotent cancel, recorded for replay."""
        with self._work:
            self._refuse_without_wal()
            sess = self._owned(token, sid)
            if sid not in self._live:
                return {
                    "session": sid,
                    "cancelled": False,
                    "status": sess.handle.status,
                }
            self.backend.cancel(sess.handle)
            self._append(self.log.record_cancel, self._now(), sid)
            self._end_session(sess)
            self._work.notify_all()
            return {
                "session": sid,
                "cancelled": True,
                "status": sess.handle.status,
            }

    def stats_payload(self) -> Dict:
        """GET /stats: backend counters + server-side attribution."""
        with self._http_lock:
            http = dict(self._http)
        with self._lock:
            data = self.backend.stats().to_dict()
            data["server"] = {
                "scenario": self.spec.name,
                "draining": self._draining,
                "finished": self._finished,
                "uptime_s": time.monotonic() - self._started_wall,
                "time_scale": self.time_scale,
                "sessions": {
                    "total": len(self.sessions),
                    "live": len(self._live),
                    "done": len(self.sessions) - len(self._live),
                    "retired": self._retired,
                },
                "world": {"registered_mobiles": self._registered_mobiles()},
                "pump": {
                    "slices": self._slices,
                    "advance_wall_s": self._advance_wall_s,
                    "sim_now": self._now(),
                    "lag_s": self._pump_lag_locked(),
                },
                "edge": self.edge.snapshot(),
                "wire_chaos": (
                    self.chaos.snapshot() if self.chaos is not None else None
                ),
                "idempotency": {
                    "entries": len(self._idempotent),
                    "hits": self._idempotent_hits,
                },
                "http": http,
                "latency_ms": {
                    name: timer.snapshot()
                    for name, timer in sorted(self._timers.items())
                },
            }
            return data

    def healthz(self) -> Dict:
        with self._lock:
            return {
                "ok": not self._finished and self.log.error is None,
                "scenario": self.spec.name,
                "draining": self._draining,
                "now": self._now(),
            }

    # ------------------------------------------------------------------
    # Shutdown: drain, close, prove
    # ------------------------------------------------------------------
    def begin_drain(self) -> None:
        """Refuse new submits; existing sessions keep running."""
        with self._work:
            self._draining = True
            self._work.notify_all()

    def wait_drained(self, timeout_s: Optional[float] = None) -> bool:
        """Block until every session is done (True) or timeout (False)."""
        deadline = (
            time.monotonic() + timeout_s if timeout_s is not None else None
        )
        with self._work:
            while self._live:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._work.wait(
                    min(0.1, remaining) if remaining is not None else 0.1
                )
            return True

    def cancel_remaining(self) -> int:
        """Force-cancel every live session (drain-timeout stragglers).

        Recorded like client cancels, so the log stays replayable.
        """
        cancelled = 0
        with self._work:
            for sess in self._live_sessions():
                self.backend.cancel(sess.handle)
                self._append(self.log.record_cancel, self._now(), sess.sid)
                self._end_session(sess)
                cancelled += 1
            self._work.notify_all()
        return cancelled

    def finish(self) -> Dict:
        """Close the backend, score the run, prove teardown left nothing.

        Idempotent; returns (and caches) the final summary: the scored
        :class:`WorkloadResult`, the result fingerprints replay must
        reproduce, and the post-release leak census (all-zero when the
        daemon's session teardown is airtight).
        """
        if self.summary is not None:
            return self.summary
        self._stop.set()
        with self._work:
            self._work.notify_all()
        if self._pump is not None:
            self._pump.join(timeout=10.0)
        with self._work:
            self._finished = True
            registered_mobiles = self._registered_mobiles()
            workload = self.backend.close()
            stats = self.backend.stats()
            # Signed only if the WAL holds every op: one it lost would
            # replay to other numbers.
            fingerprints = (
                result_fingerprints(workload, stats)
                if self.log.error is None
                else None
            )
            # Whatever was live when the pump stopped was never retired:
            # release it now so the leak census judges the daemon.
            for sess in self._live_sessions():
                sess.handle.service.release_session_state(sess.handle)
                self._end_session(sess)
            leaks: Dict[str, int] = {}
            for service in self._services():
                for key, value in leak_census(service).items():
                    leaks[key] = leaks.get(key, 0) + value
            ratios = [s.success_ratio for s in workload.sessions]
            self.summary = {
                "scenario": self.spec.name,
                "sessions": {
                    "submitted": len(self.sessions),
                    "admitted": stats.admitted,
                    "rejected": stats.rejected,
                    "cancelled": stats.cancelled,
                },
                # proxies still on a channel when the pump stopped: 0 after
                # a drain, every session having been cancelled or retired
                "registered_mobiles": registered_mobiles,
                "workload": {
                    "sessions": len(workload.sessions),
                    "mean_success": (
                        sum(ratios) / len(ratios) if ratios else None
                    ),
                    "min_success": min(ratios) if ratios else None,
                },
                "stats": stats.to_dict(),
                "fingerprints": fingerprints,
                "leaks": leaks,
                "leak_total": sum(leaks.values()),
            }
            self.log.close_wal()
            self._work.notify_all()
        return self.summary

    def write_log(self, out_dir: str = ".", name: Optional[str] = None) -> str:
        """Write ``SERVE_<name>.json``: the closed WAL's scenario and ops,
        the fingerprints their replay must reproduce, and the summary."""
        data = render_log(self.log.wal_path, self.finish())
        path = os.path.join(out_dir, _log_stem(name or self.spec.name) + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path


class ServeHandler(BaseHTTPRequestHandler):
    """Thin JSON shim: routes HTTP onto the owning :class:`ServeApp`."""

    protocol_version = "HTTP/1.1"
    #: set by :func:`make_server` on the server class
    server_version = "repro-serve/1"
    #: TCP_NODELAY on every accepted socket (see the module docstring)
    disable_nagle_algorithm = True
    #: a connection idle this long is closed
    timeout = IDLE_TIMEOUT_S

    @property
    def app(self) -> ServeApp:
        return self.server.app  # type: ignore[attr-defined]

    def setup(self) -> None:
        super().setup()
        self.app.note_http("connections")

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # the daemon's stdout is for the banner, not access logs

    def _send_json(
        self,
        status: int,
        payload: Dict,
        retry_after_s: Optional[float] = None,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        if retry_after_s is not None:
            self.send_header(
                "Retry-After", str(max(0, int(-(-retry_after_s // 1))))
            )
        if getattr(self, "_chaos_truncate", False) and len(body) > 1:
            # Wire chaos: state is committed but the response is cut
            # short mid-body; the client sees an IncompleteRead and must
            # lean on its idempotency key to retry safely.
            body = body[: len(body) // 2]
            self.close_connection = True
        if self.request_version == "HTTP/0.9":
            self.wfile.write(body)  # no header block to join it to
            return
        # One write: end_headers() would send the header block on its own,
        # leaving the body to wait for the peer's delayed ACK.
        self._headers_buffer.append(b"\r\n" + body)
        self.flush_headers()

    def _token(self) -> str:
        token = (self.headers.get(TOKEN_HEADER) or "").strip()
        if not token:
            raise WireError(
                "missing-token",
                f"the {TOKEN_HEADER} header identifies the client",
            )
        return token

    def _read_body(self) -> Optional[bytes]:
        """The request's raw body, or ``None`` if its Content-Length is bad.

        Read before anything can answer the request: a body left unread
        would be parsed as the next request on a kept-alive connection.  A
        body whose length cannot be trusted cannot be skipped either, so
        its connection closes after the response.
        """
        try:
            length = int(self.headers.get("Content-Length") or "0")
        except ValueError:
            length = -1
        if not 0 <= length <= MAX_BODY_BYTES:
            self.close_connection = True
            return None
        return self.rfile.read(length) if length else b""

    def _body(self) -> object:
        raw = self._raw_body
        if raw is None:
            raise WireError(
                "invalid-request",
                f"Content-Length must be an integer between 0 and "
                f"{MAX_BODY_BYTES}, got {self.headers.get('Content-Length')!r}",
            )
        try:
            return json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise WireError(
                "invalid-request", f"request body is not JSON: {exc}"
            ) from exc

    def _session_route(self, parts: List[str]) -> int:
        try:
            return int(parts[1])
        except ValueError as exc:
            raise WireError(
                "invalid-request", f"session id must be an integer: {parts[1]!r}"
            ) from exc

    def _dispatch(self, method: str) -> None:
        self.app.note_http("requests")
        endpoint = "?"
        t0 = time.perf_counter()
        self._chaos_truncate = False
        plane = self.app.chaos
        inject_error = False
        if plane is not None:
            action = plane.plan_request()
            if action.delay_s > 0:
                time.sleep(action.delay_s)
            if action.reset:
                # No response at all: the client sees the connection
                # drop (RemoteDisconnected) before any state changed.
                self.close_connection = True
                return
            self._chaos_truncate = action.truncate
            inject_error = action.inject_error
        try:
            self._raw_body = self._read_body()
            if inject_error:
                raise WireError(
                    "chaos-injected",
                    "wire-chaos plane injected a failure before dispatch",
                    retry_after_s=0.05,
                )
            url = urlsplit(self.path)
            parts = [p for p in url.path.split("/") if p]
            query = parse_qs(url.query)
            if method == "GET" and parts == ["healthz"]:
                endpoint = "GET /healthz"
                self._send_json(200, self.app.healthz())
            elif method == "GET" and parts == ["stats"]:
                endpoint = "GET /stats"
                self._send_json(200, self.app.stats_payload())
            elif method == "POST" and parts == ["sessions"]:
                endpoint = "POST /sessions"
                token = self._token()
                idem = (self.headers.get(IDEMPOTENCY_HEADER) or "").strip()
                resp = self.app.submit(
                    token, self._body(), idempotency_key=idem or None
                )
                status = 201 if "error" not in resp else 409
                self._send_json(status, resp)
            elif (
                method == "GET"
                and len(parts) == 3
                and parts[0] == "sessions"
                and parts[2] == "results"
            ):
                endpoint = "GET /sessions/{id}/results"
                token = self._token()
                sid = self._session_route(parts)
                try:
                    after = int(query.get("after", ["0"])[0])
                    wait_s = float(query.get("wait", ["0"])[0])
                except ValueError as exc:
                    raise WireError(
                        "invalid-request", f"bad query parameter: {exc}"
                    ) from exc
                self._send_json(200, self.app.results(token, sid, after, wait_s))
            elif (
                method == "DELETE"
                and len(parts) == 2
                and parts[0] == "sessions"
            ):
                endpoint = "DELETE /sessions/{id}"
                token = self._token()
                sid = self._session_route(parts)
                self._send_json(200, self.app.cancel(token, sid))
            else:
                raise WireError(
                    "unknown-route", f"{method} {url.path} is not an endpoint"
                )
        except Exception as exc:  # noqa: BLE001 - typed contract boundary
            error = map_exception(exc)
            try:
                self._send_json(
                    error.http_status,
                    error.payload(),
                    retry_after_s=error.retry_after_s,
                )
            except (BrokenPipeError, ConnectionResetError):
                pass  # client went away mid-error; nothing to tell it
        finally:
            self.app.note_latency(
                endpoint, (time.perf_counter() - t0) * 1000.0
            )

    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")

    def do_DELETE(self) -> None:
        self._dispatch("DELETE")


def make_server(
    app: ServeApp, host: str = "127.0.0.1", port: int = 0
) -> ThreadingHTTPServer:
    """An HTTP server bound to ``host:port`` (0 = ephemeral), serving ``app``."""

    class _Server(ThreadingHTTPServer):
        daemon_threads = True
        allow_reuse_address = True

    server = _Server((host, port), ServeHandler)
    server.app = app  # type: ignore[attr-defined]
    return server


def run_serve(
    spec: ScenarioSpec,
    host: str = "127.0.0.1",
    port: int = 8600,
    drain_timeout_s: float = 30.0,
    time_scale: float = DEFAULT_TIME_SCALE,
    ring_capacity: int = 256,
    out_dir: str = ".",
    name: Optional[str] = None,
    edge: Optional[EdgeConfig] = None,
    wal_flush_every: Optional[int] = None,
) -> int:
    """The blocking ``repro serve`` entrypoint: serve until SIGTERM/SIGINT.

    The first signal starts the drain; any later one is ignored until
    the drain and the drained log are done.

    Always writes the crash-safe WAL (``SERVE_<name>.wal``) as ops
    commit, so even a SIGKILL'd daemon leaves a flushed prefix behind
    that ``repro replay`` proves.

    Daemon posture defaults come from the *scenario*: when ``edge`` /
    ``wal_flush_every`` are not passed (CLI flags override), the spec's
    declarative ``edge_rate`` / ``edge_burst`` / ``max_live_sessions`` /
    ``wal_flush`` keys apply — a workload file fully describes how its
    daemon should hold the door.

    Returns the process exit code: 0 on a clean drain with a leak-free
    census, 3 (EXIT_FAILURE) when residual protocol state survived.
    """
    from .errors import EXIT_FAILURE

    if edge is None:
        edge = EdgeConfig(
            rate=spec.edge_rate,
            burst=spec.edge_burst,
            max_live_sessions=spec.max_live_sessions,
        )
    if wal_flush_every is None:
        wal_flush_every = spec.wal_flush
    wal_path = os.path.join(out_dir, _log_stem(name or spec.name) + ".wal")
    app = ServeApp(
        spec,
        ring_capacity=ring_capacity,
        time_scale=time_scale,
        edge=edge,
        wal_path=wal_path,
        wal_flush_every=wal_flush_every,
    )
    server = make_server(app, host=host, port=port)
    stop = threading.Event()
    previous = {}

    def _request_stop(signum, frame) -> None:
        stop.set()

    for signum in (signal.SIGTERM, signal.SIGINT):
        previous[signum] = signal.signal(signum, _request_stop)
    app.start()
    server_thread = threading.Thread(
        target=server.serve_forever,
        kwargs={"poll_interval": SERVE_POLL_S},
        name="serve-http",
        daemon=True,
    )
    server_thread.start()
    bound = server.server_address
    edge_note = (
        f", edge rate={app.edge.config.rate:g}/s"
        if app.edge.config.enabled
        else ""
    )
    chaos_note = ", wire-chaos ON" if app.chaos is not None else ""
    print(
        f"repro serve: scenario={spec.name} listening on "
        f"http://{bound[0]}:{bound[1]} (time_scale={time_scale:g}, "
        f"drain_timeout={drain_timeout_s:g}s{edge_note}{chaos_note}) "
        f"wal={wal_path} — SIGTERM to drain",
        flush=True,
    )
    # The handlers stay installed until the drain has ended: a second
    # SIGTERM or SIGINT only sets ``stop`` again, so it can neither kill
    # the process mid-finish() nor raise KeyboardInterrupt under the app
    # lock.  The drain is bounded by ``drain_timeout_s``; SIGKILL ends it
    # sooner and leaves what it always leaves, a WAL prefix that replays.
    try:
        stop.wait()
        print("repro serve: draining (new submits get 503)...", flush=True)
        app.begin_drain()
        drained = app.wait_drained(drain_timeout_s)
        forced = 0 if drained else app.cancel_remaining()
        summary = app.finish()
        log_path = app.write_log(out_dir=out_dir, name=name)
        server.shutdown()
        server.server_close()
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    sessions = summary["sessions"]
    print(
        f"repro serve: drained={'clean' if drained else f'forced {forced}'} "
        f"sessions={sessions['submitted']} admitted={sessions['admitted']} "
        f"rejected={sessions['rejected']} leak_total={summary['leak_total']} "
        f"log={log_path}",
        flush=True,
    )
    if summary["leak_total"] > 0:
        import sys

        print(
            f"repro serve: error: residual protocol state after drain: "
            f"{ {k: v for k, v in summary['leaks'].items() if v} }",
            file=sys.stderr,
        )
        return EXIT_FAILURE
    return 0


__all__ = [
    "DEFAULT_TIME_SCALE",
    "IDEMPOTENCY_HEADER",
    "IDLE_TIMEOUT_S",
    "MAX_BODY_BYTES",
    "MAX_WAIT_S",
    "SERVE_POLL_S",
    "SLICE_S",
    "TOKEN_HEADER",
    "ServeApp",
    "ServeHandler",
    "make_server",
    "run_serve",
]
