"""The serving layer: daemon, wire contract, client, load generator.

``repro serve`` puts any :class:`~repro.api.backend.QueryBackend` behind
an HTTP/JSON session API with multi-tenant ownership, bounded result
rings, graceful SIGTERM drain, and a bit-identically replayable
write-ahead op log; ``repro slam`` is the load generator that proves it.
"""

from .chaos import ChaosAction, WireChaosPlane
from .client import RetryPolicy, ServeClient
from .daemon import (
    DEFAULT_TIME_SCALE,
    IDEMPOTENCY_HEADER,
    MAX_WAIT_S,
    TOKEN_HEADER,
    ServeApp,
    ServeHandler,
    make_server,
    run_serve,
)
from .edge import EdgeConfig, EdgeGuard, TokenBucket
from .errors import (
    ERROR_CODES,
    EXIT_FAILURE,
    EXIT_USAGE,
    RETRYABLE_CODES,
    WireError,
    map_exception,
)
from .log import (
    LOG_FORMAT,
    WAL_FORMAT,
    SubmissionLog,
    read_log,
    replay_submission_log,
    result_fingerprints,
    verify_log,
)
from .ring import ResultRing
from .slam import SlamConfig, markdown_table, run_slam, write_slam_outputs
from .wire import outcome_to_wire, percentile, request_from_wire, summarize

__all__ = [
    "ChaosAction",
    "DEFAULT_TIME_SCALE",
    "ERROR_CODES",
    "EXIT_FAILURE",
    "EXIT_USAGE",
    "EdgeConfig",
    "EdgeGuard",
    "IDEMPOTENCY_HEADER",
    "LOG_FORMAT",
    "MAX_WAIT_S",
    "RETRYABLE_CODES",
    "ResultRing",
    "RetryPolicy",
    "ServeApp",
    "ServeClient",
    "ServeHandler",
    "SlamConfig",
    "SubmissionLog",
    "TOKEN_HEADER",
    "TokenBucket",
    "WAL_FORMAT",
    "WireChaosPlane",
    "WireError",
    "make_server",
    "map_exception",
    "markdown_table",
    "outcome_to_wire",
    "percentile",
    "read_log",
    "replay_submission_log",
    "request_from_wire",
    "result_fingerprints",
    "run_serve",
    "run_slam",
    "summarize",
    "verify_log",
    "write_slam_outputs",
]
