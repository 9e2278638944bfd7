"""A resilient stdlib HTTP client for the serve daemon's wire API.

Every response — success or typed error — comes back as parsed JSON;
transport-level failures (daemon down, connection reset, truncated
body) surface as the typed ``daemon-unreachable``
:class:`~repro.serve.errors.WireError` carrying the last typed
``{code, message}`` payload seen, so CLI callers can map any failure to
the contract's exit codes.

Connections are reused (HTTP/1.1 keep-alive).  The client keeps a free
list of idle connections: a request takes one — or opens one when the
list is empty — and hands it back after a complete response, unless
the response said the daemon will close it.  A connection in use is off
the list, so threads sharing one client (a ``repro slam`` worker's
submit loop and its stream thread) each get their own.  Before reusing
an idle connection the client tests its socket for readability with a
zero timeout, as urllib3's ``is_connection_dropped`` does: an idle
connection with something to read was closed by the daemon (its idle
timeout) and is discarded unused.

A failure on a reused connection is what it is on a fresh one: one
counted transport failure, after which the connection is dropped.  No
request is ever re-sent behind the :class:`RetryPolicy`'s back — a
retry is an attempt, counted and backed off like any other.

Resilience (opt-in via :class:`RetryPolicy`):

* **Bounded retry with decorrelated-jitter backoff** — each retry
  sleeps ``min(cap, base + U(0,1) * 3 * previous)`` drawn from the
  client's own named RNG stream (``client-backoff.<token>``), floored
  by any ``Retry-After`` the server sent.  Transport failures and the
  typed retryable codes (``rate-limited``, ``overloaded``,
  ``chaos-injected``) are retried; everything else returns immediately.
* **Idempotency keys** — every ``submit`` carries a per-client unique
  ``X-Repro-Idempotency-Key``, held stable across its retries, so a
  submit whose response was lost on the wire can never double-admit.

The default policy (``max_attempts=1``) is the old fail-fast client.
"""

from __future__ import annotations

import http.client
import itertools
import json
import select
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple
from urllib.parse import urlsplit

from ..sim.rng import RandomStreams
from .daemon import IDEMPOTENCY_HEADER, TOKEN_HEADER
from .errors import RETRYABLE_CODES, WireError

#: per-code counter names in :attr:`ServeClient.counters`
_COUNTER_BY_CODE = {
    "rate-limited": "rate_limited",
    "overloaded": "overloaded",
    "chaos-injected": "chaos_injected",
}


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with decorrelated-jitter backoff."""

    #: total attempts per logical request (1 = no retries)
    max_attempts: int = 1
    #: backoff floor per sleep
    base_s: float = 0.05
    #: backoff ceiling per sleep
    cap_s: float = 2.0
    #: root seed of the client's backoff stream
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"retry max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_s <= 0:
            raise ValueError(f"retry base_s must be > 0, got {self.base_s}")
        if self.cap_s < self.base_s:
            raise ValueError(
                f"retry cap_s ({self.cap_s}) must be >= base_s ({self.base_s})"
            )


class _TransportFailure(Exception):
    """Internal: one failed round trip (no parseable HTTP response)."""


def _dropped(conn: http.client.HTTPConnection) -> bool:
    """Whether an idle connection is unusable: closed on our side, or
    readable — which, with no request outstanding, means the daemon
    closed it (or sent bytes nobody asked for)."""
    sock = conn.sock
    if sock is None:
        return True
    try:
        return bool(select.select([sock], [], [], 0.0)[0])
    except (OSError, ValueError):
        return True


class ServeClient:
    """One client identity (token) talking to one daemon."""

    def __init__(
        self,
        base_url: str,
        token: str,
        timeout_s: float = 10.0,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        url = urlsplit(self.base_url)
        if url.scheme != "http" or not url.hostname:
            raise ValueError(
                f"daemon URL must look like http://host:port, got {base_url!r}"
            )
        self._host, self._port, self._prefix = url.hostname, url.port, url.path
        self.token = token
        self.timeout_s = timeout_s
        self.retry = retry if retry is not None else RetryPolicy()
        self._rng = RandomStreams(self.retry.seed).stream(
            f"client-backoff.{token}"
        )
        self._lock = threading.Lock()
        self._idem = itertools.count(1)
        #: idle kept-alive connections, most recently returned last
        self._idle: List[http.client.HTTPConnection] = []
        self.counters: Dict[str, int] = {
            "requests": 0,
            "attempts": 0,
            "retries": 0,
            "transport_errors": 0,
            "rate_limited": 0,
            "overloaded": 0,
            "chaos_injected": 0,
            "gave_up": 0,
            "connections": 0,
        }
        #: attempts consumed per finished logical request
        self.attempts_per_request: List[int] = []

    def close(self) -> None:
        """Close every idle connection.  The client stays usable: the next
        request opens a new one."""
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def _note(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counters[key] += n

    def counters_snapshot(self) -> Tuple[Dict[str, int], List[int]]:
        with self._lock:
            return dict(self.counters), list(self.attempts_per_request)

    # ------------------------------------------------------------------
    # One wire round trip (no retries)
    # ------------------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        """An idle connection the daemon has not closed, else a new one."""
        while True:
            with self._lock:
                conn = self._idle.pop() if self._idle else None
            if conn is None:
                break
            if not _dropped(conn):
                return conn
            conn.close()
        conn = http.client.HTTPConnection(
            self._host, self._port, timeout=self.timeout_s
        )
        conn.connect()
        self._note("connections")
        return conn

    def _round_trip(
        self,
        method: str,
        path: str,
        body: Optional[Dict],
        headers: Optional[Dict[str, str]],
    ) -> Tuple[int, Dict, Optional[float]]:
        """Returns ``(status, payload, retry_after_s)``.

        Raises :class:`_TransportFailure` when no parseable HTTP
        response arrived (connection refused/reset, truncated or
        malformed body) and drops the connection.  A status line with
        an unreadable body is a transport failure too, not a verdict:
        the typed payload — the only thing that tells a 503 shed from a
        503 chaos injection — never arrived, so retrying is the only
        honest move.
        """
        data = json.dumps(body).encode("utf-8") if body is not None else None
        all_headers = {
            TOKEN_HEADER: self.token,
            "Content-Type": "application/json",
        }
        if headers:
            all_headers.update(headers)
        conn: Optional[http.client.HTTPConnection] = None
        try:
            conn = self._connection()
            conn.request(
                method, self._prefix + path, body=data, headers=all_headers
            )
            resp = conn.getresponse()
            raw = resp.read()
        except (http.client.HTTPException, OSError) as exc:
            if conn is not None:
                conn.close()
            raise _TransportFailure(f"{type(exc).__name__}: {exc}") from exc
        try:
            payload = json.loads(raw.decode("utf-8"))
        except ValueError as exc:  # UnicodeDecodeError, JSONDecodeError
            conn.close()
            raise _TransportFailure(
                f"malformed response body (HTTP {resp.status}): {exc}"
            ) from exc
        if resp.will_close:
            conn.close()
        else:
            with self._lock:
                self._idle.append(conn)
        # Typed errors ride in the body; keep them as data, not raises —
        # the caller decides what a 409 verdict means.
        retry_after: Optional[float] = None
        header = resp.getheader("Retry-After")
        if header is not None:
            try:
                retry_after = float(header)
            except ValueError:
                retry_after = None
        error = payload.get("error") if isinstance(payload, dict) else None
        if isinstance(error, dict) and error.get("retry_after_s") is not None:
            # The JSON hint is finer-grained than the integer header
            retry_after = float(error["retry_after_s"])
        return resp.status, payload, retry_after

    # ------------------------------------------------------------------
    # The retrying request loop
    # ------------------------------------------------------------------
    def _backoff(self, previous_s: float, retry_after_s: Optional[float]) -> float:
        """Sleep one decorrelated-jitter step; returns the drawn delay."""
        with self._lock:
            draw = float(self._rng.random())
        delay = min(
            self.retry.cap_s, self.retry.base_s + draw * 3.0 * previous_s
        )
        time.sleep(max(delay, retry_after_s or 0.0))
        return delay

    def _finish(self, attempts: int, gave_up: bool) -> None:
        with self._lock:
            self.attempts_per_request.append(attempts)
            if gave_up:
                self.counters["gave_up"] += 1

    def request(
        self,
        method: str,
        path: str,
        body: Optional[Dict] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, Dict]:
        """One logical request; returns ``(http_status, parsed_json)``.

        Retries (bounded by the policy) on transport failures and typed
        retryable codes; raises ``daemon-unreachable`` — including the
        last typed ``{code, message}`` seen, if any — when every
        attempt failed at the transport level.
        """
        self._note("requests")
        attempts = 0
        previous_s = self.retry.base_s
        last_typed: Optional[Dict] = None
        while True:
            attempts += 1
            self._note("attempts")
            try:
                status, payload, retry_after = self._round_trip(
                    method, path, body, headers
                )
            except _TransportFailure as exc:
                self._note("transport_errors")
                if attempts >= self.retry.max_attempts:
                    self._finish(attempts, gave_up=True)
                    typed = (
                        f"; last typed error: {json.dumps(last_typed)}"
                        if last_typed
                        else ""
                    )
                    raise WireError(
                        "daemon-unreachable",
                        f"no usable response from {self.base_url} after "
                        f"{attempts} attempt(s): {exc}{typed}",
                    ) from exc
                self._note("retries")
                previous_s = self._backoff(previous_s, None)
                continue
            error = payload.get("error") if isinstance(payload, dict) else None
            code = error.get("code") if isinstance(error, dict) else None
            if code in RETRYABLE_CODES:
                last_typed = {
                    "code": code,
                    "message": error.get("message", ""),
                }
                self._note(_COUNTER_BY_CODE[code])
                if attempts < self.retry.max_attempts:
                    self._note("retries")
                    previous_s = self._backoff(previous_s, retry_after)
                    continue
                # Exhausted: hand the typed shed back as data, counted
                self._finish(attempts, gave_up=True)
                return status, payload
            self._finish(attempts, gave_up=False)
            return status, payload

    # ------------------------------------------------------------------
    # Endpoint helpers
    # ------------------------------------------------------------------
    def healthz(self) -> Dict:
        return self.request("GET", "/healthz")[1]

    def stats(self) -> Dict:
        return self.request("GET", "/stats")[1]

    def submit(self, payload: Dict) -> Tuple[int, Dict]:
        # One key per logical submit, stable across its retries: the
        # daemon dedups on (token, key), so a lost response can never
        # double-admit.
        key = f"{self.token}.{next(self._idem)}"
        return self.request(
            "POST", "/sessions", body=payload, headers={IDEMPOTENCY_HEADER: key}
        )

    def results(
        self, session: int, after: int = 0, wait_s: float = 0.0
    ) -> Dict:
        return self.request(
            "GET", f"/sessions/{session}/results?after={after}&wait={wait_s:g}"
        )[1]

    def cancel(self, session: int) -> Dict:
        return self.request("DELETE", f"/sessions/{session}")[1]


__all__ = ["RetryPolicy", "ServeClient"]
