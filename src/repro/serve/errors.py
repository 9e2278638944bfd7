"""The typed wire/CLI error contract.

Every failure the serve daemon can hand a client — and every failure the
CLI can exit on — maps to one stable ``{code, message}`` JSON payload.
The codes are API: tests pin them, clients branch on them, and the CLI
derives its exit status from them, so the same error means the same
thing whether it arrives over HTTP or on stderr.

Two exit classes, matching the CLI's long-standing convention:

* ``2`` — usage/validation: the caller's input was malformed (bad JSON,
  unknown scenario, missing token, unknown route).
* ``3`` — runtime/invariant: the input was well-formed but the service
  said no (admission rejected, horizon passed, draining, foreign
  session) or a determinism check failed (replay mismatch).
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

#: CLI exit statuses (the repo-wide convention)
EXIT_USAGE = 2
EXIT_FAILURE = 3

#: code -> (http_status, exit_code); the stable contract tests pin
ERROR_CODES: Dict[str, Tuple[int, int]] = {
    "invalid-request": (400, EXIT_USAGE),
    "unknown-scenario": (404, EXIT_USAGE),
    "missing-token": (401, EXIT_USAGE),
    "unknown-route": (404, EXIT_USAGE),
    "foreign-session": (403, EXIT_FAILURE),
    "unknown-session": (404, EXIT_FAILURE),
    "admission-rejected": (409, EXIT_FAILURE),
    "horizon-passed": (409, EXIT_FAILURE),
    "service-closed": (503, EXIT_FAILURE),
    "draining": (503, EXIT_FAILURE),
    "daemon-unreachable": (502, EXIT_FAILURE),
    "replay-mismatch": (409, EXIT_FAILURE),
    "internal": (500, EXIT_FAILURE),
    "rate-limited": (429, EXIT_FAILURE),
    "overloaded": (503, EXIT_FAILURE),
    "chaos-injected": (503, EXIT_FAILURE),
}

#: codes a well-behaved client may retry (transient by construction:
#: the edge shed them before any backend/log state changed, or the
#: wire-chaos plane injected them before dispatch)
RETRYABLE_CODES = frozenset({"rate-limited", "overloaded", "chaos-injected"})


class WireError(Exception):
    """One typed failure, equally at home in an HTTP body or an exit path.

    ``retry_after_s`` (optional) is the server's backoff hint: it rides
    in the JSON payload and — on the HTTP surface — as a ``Retry-After``
    header, so shed clients know when the edge expects capacity back.
    """

    def __init__(
        self,
        code: str,
        message: str,
        retry_after_s: Optional[float] = None,
    ) -> None:
        if code not in ERROR_CODES:
            raise ValueError(f"unknown wire-error code {code!r}")
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message
        self.retry_after_s = retry_after_s
        self.http_status, self.exit_code = ERROR_CODES[code]

    def payload(self) -> Dict:
        """The JSON body every error response carries."""
        error: Dict = {"code": self.code, "message": self.message}
        if self.retry_after_s is not None:
            error["retry_after_s"] = round(float(self.retry_after_s), 3)
        return {"error": error}

    @classmethod
    def from_payload(cls, data: Mapping) -> "WireError":
        """Rebuild the error a server sent (client-side symmetry)."""
        error = data.get("error") if isinstance(data, Mapping) else None
        if not isinstance(error, Mapping) or "code" not in error:
            return cls("internal", f"malformed error payload: {data!r}")
        code = str(error["code"])
        message = str(error.get("message", ""))
        retry_after = error.get("retry_after_s")
        if code not in ERROR_CODES:
            return cls("internal", f"unknown error code {code!r}: {message}")
        return cls(
            code,
            message,
            retry_after_s=(
                float(retry_after) if retry_after is not None else None
            ),
        )


def map_exception(exc: BaseException) -> WireError:
    """Fold any exception into the typed contract.

    ``ServiceClosedError`` (the backend sealed itself) becomes
    ``service-closed``, ``HorizonPassedError`` ``horizon-passed``;
    ``KeyError`` is the scenario-registry miss;
    spec/request validation errors (``ValueError``/``TypeError``) become
    ``invalid-request``; anything else is ``internal`` — the catch-all
    that keeps a daemon thread from dying silently.
    """
    from ..api.service import HorizonPassedError, ServiceClosedError

    if isinstance(exc, WireError):
        return exc
    if isinstance(exc, ServiceClosedError):
        return WireError("service-closed", str(exc))
    if isinstance(exc, HorizonPassedError):
        return WireError("horizon-passed", str(exc))
    if isinstance(exc, KeyError):
        detail = exc.args[0] if exc.args else exc
        return WireError("unknown-scenario", str(detail))
    if isinstance(exc, (ValueError, TypeError)):
        return WireError("invalid-request", str(exc))
    return WireError("internal", f"{type(exc).__name__}: {exc}")


__all__ = [
    "ERROR_CODES",
    "EXIT_FAILURE",
    "EXIT_USAGE",
    "RETRYABLE_CODES",
    "WireError",
    "map_exception",
]
