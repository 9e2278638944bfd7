"""``repro slam`` — the load generator that proves the daemon.

Replays a scenario's arrival process against a live ``repro serve`` at a
configured rate from N concurrent client identities, streams every
admitted session's outcomes, and reports admission/latency/success
percentiles.  The daemon records each submission in its replayable log,
so a slam run is simultaneously a load test and a determinism proof:
``repro replay SERVE_<name>.json`` re-executes it in-process and must
reproduce the daemon's result fingerprints bit for bit.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..api.scenarios import ScenarioSpec, build_request_payloads
from .client import RetryPolicy, ServeClient
from .errors import WireError
from .wire import summarize


@dataclass(frozen=True)
class SlamConfig:
    """How hard to push: arrival rate, concurrency, and wall budget."""

    url: str
    #: submissions per wall second
    rate: float = 8.0
    #: concurrent client identities (tokens ``slam-0`` .. ``slam-N-1``)
    clients: int = 2
    #: wall-clock budget; sessions still live at the end are cancelled
    duration_s: float = 120.0
    #: long-poll wait per results call
    wait_s: float = 0.5
    #: per-request HTTP timeout (recorded in the report config)
    timeout_s: float = 10.0
    #: bounded retries per logical request (0 = fail fast, the old way)
    retries: int = 3
    #: root seed of the clients' backoff streams
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError(f"slam rate must be > 0, got {self.rate}")
        if self.clients < 1:
            raise ValueError(f"slam clients must be >= 1, got {self.clients}")
        if self.duration_s <= 0:
            raise ValueError(
                f"slam duration must be > 0, got {self.duration_s}"
            )
        if self.wait_s < 0:
            raise ValueError(f"slam wait must be >= 0, got {self.wait_s}")
        if self.timeout_s <= 0:
            raise ValueError(f"slam timeout must be > 0, got {self.timeout_s}")
        if self.retries < 0:
            raise ValueError(f"slam retries must be >= 0, got {self.retries}")
        if self.seed < 0:
            raise ValueError(f"slam seed must be >= 0, got {self.seed}")


class _Worker:
    """One client identity: its session queue and streaming thread."""

    def __init__(self, index: int, config: SlamConfig) -> None:
        self.index = index
        self.client = ServeClient(
            config.url,
            f"slam-{index}",
            timeout_s=config.timeout_s,
            retry=RetryPolicy(
                max_attempts=config.retries + 1,
                base_s=0.05,
                cap_s=1.0,
                seed=config.seed,
            ),
        )
        self.lock = threading.Lock()
        #: sessions assigned by the submitter, not yet picked up
        self.inbox: List[Dict] = []
        self.poll_ms: List[float] = []
        self.sessions: List[Dict] = []
        self.errors: List[Dict] = []

    def assign(self, sid: int, num_periods: int) -> None:
        with self.lock:
            self.inbox.append(
                {
                    "session": sid,
                    "num_periods": num_periods,
                    "after": 0,
                    "on_time": 0,
                    "delivered": 0,
                    "received": 0,
                    "missed": 0,
                }
            )

    def stream(
        self,
        config: SlamConfig,
        deadline: float,
        submit_done: threading.Event,
    ) -> None:
        """Poll every assigned session until done, deadline, or drained."""
        live: List[Dict] = []
        while True:
            with self.lock:
                live.extend(self.inbox)
                self.inbox.clear()
            if not live:
                if submit_done.is_set():
                    return
                time.sleep(0.02)
                continue
            past_deadline = time.monotonic() > deadline
            for state in list(live):
                sid = state["session"]
                try:
                    if past_deadline:
                        self.client.cancel(sid)
                        state["cancelled"] = True
                    # Long-poll only when this worker has a single live
                    # session; otherwise short-poll to keep them all moving.
                    wait = config.wait_s if len(live) == 1 else 0.1
                    t0 = time.perf_counter()
                    resp = self.client.results(
                        sid,
                        after=state["after"],
                        wait_s=0.0 if past_deadline else wait,
                    )
                except WireError as exc:
                    # Daemon gone (all retries exhausted): record the
                    # typed failure and drop the session instead of
                    # dying silently and stranding the join.
                    self.errors.append({"session": sid, "error": str(exc)})
                    live.remove(state)
                    self.sessions.append(state)
                    continue
                self.poll_ms.append((time.perf_counter() - t0) * 1000.0)
                if "error" in resp:
                    self.errors.append({"session": sid, "response": resp})
                    live.remove(state)
                    self.sessions.append(state)
                    continue
                for outcome in resp["outcomes"]:
                    state["received"] += 1
                    state["delivered"] += 1 if outcome["delivered"] else 0
                    state["on_time"] += 1 if outcome["on_time"] else 0
                    state["after"] = max(state["after"], outcome["k"])
                state["missed"] += resp["missed"]
                if resp["done"] or (past_deadline and not resp["outcomes"]):
                    state["status"] = resp["status"]
                    live.remove(state)
                    self.sessions.append(state)


def run_slam(spec: ScenarioSpec, config: SlamConfig) -> Dict:
    """Drive one slam run end to end; returns the report (plain data).

    Raises :class:`~repro.serve.errors.WireError`
    (``daemon-unreachable``) when no daemon answers at ``config.url``.
    """
    payloads = sorted(
        build_request_payloads(spec), key=lambda p: p.get("start_s", 0.0)
    )
    workers = [_Worker(i, config) for i in range(config.clients)]
    workers[0].client.healthz()  # fail fast (and typed) on a dead daemon

    submit_ms: List[float] = []
    submissions: List[Dict] = []
    errors: List[Dict] = []
    submit_done = threading.Event()
    t_start = time.monotonic()
    deadline = t_start + config.duration_s

    threads = [
        threading.Thread(
            target=worker.stream,
            args=(config, deadline, submit_done),
            name=f"slam-stream-{worker.index}",
            daemon=True,
        )
        for worker in workers
    ]
    for thread in threads:
        thread.start()

    admitted = rejected = 0
    try:
        for index, payload in enumerate(payloads):
            due = t_start + index / config.rate
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            if time.monotonic() > deadline:
                errors.append(
                    {
                        "index": index,
                        "error": "wall budget exhausted before submission",
                    }
                )
                continue
            worker = workers[index % len(workers)]
            t0 = time.perf_counter()
            status, resp = worker.client.submit(payload)
            submit_ms.append((time.perf_counter() - t0) * 1000.0)
            submissions.append(
                {
                    "index": index,
                    "client": worker.index,
                    "status": status,
                    "wall_s": time.monotonic() - t_start,
                    "session": resp.get("session"),
                    "response": resp,
                }
            )
            if status == 201:
                admitted += 1
                worker.assign(resp["session"], resp["num_periods"])
            elif (
                status == 409
                and resp.get("error", {}).get("code") == "admission-rejected"
            ):
                rejected += 1
            else:
                errors.append({"index": index, "status": status, "response": resp})
    finally:
        submit_done.set()
    join_deadline_s = config.duration_s + 30.0
    for thread in threads:
        thread.join(timeout=join_deadline_s)
    # A thread still alive after its join deadline is a wedged client —
    # report it loudly (it counts as an error) instead of silently
    # pretending the run completed.
    stuck = [thread.name for thread in threads if thread.is_alive()]
    for name in stuck:
        errors.append(
            {
                "thread": name,
                "error": (
                    f"stream thread failed to join within "
                    f"{join_deadline_s:.0f}s"
                ),
            }
        )

    sessions = [s for w in workers for s in w.sessions]
    poll_ms = [ms for w in workers for ms in w.poll_ms]
    errors.extend(e for w in workers for e in w.errors)
    success_ratios = [
        s["on_time"] / s["num_periods"] for s in sessions if s["num_periods"]
    ]
    retry_counters: Dict[str, int] = {}
    attempts_all: List[int] = []
    connections: List[int] = []
    for worker in workers:
        worker.client.close()
        counters, attempts = worker.client.counters_snapshot()
        for key, value in counters.items():
            retry_counters[key] = retry_counters.get(key, 0) + value
        attempts_all.extend(attempts)
        connections.append(counters["connections"])
    # every attempt is one request on the wire
    requests = retry_counters.get("attempts", 0)
    wall_s = time.monotonic() - t_start
    submitted = len(submissions)
    return {
        "scenario": spec.name,
        "url": config.url,
        "config": {
            "rate": config.rate,
            "clients": config.clients,
            "duration_s": config.duration_s,
            "wait_s": config.wait_s,
            "timeout_s": config.timeout_s,
            "retries": config.retries,
            "seed": config.seed,
        },
        "counts": {
            "payloads": len(payloads),
            "submitted": submitted,
            "admitted": admitted,
            "rejected": rejected,
            "errors": len(errors),
            "sessions_finished": len(sessions),
            "outcomes": sum(s["received"] for s in sessions),
            "on_time": sum(s["on_time"] for s in sessions),
            "ring_missed": sum(s["missed"] for s in sessions),
            "retries": retry_counters.get("retries", 0),
            "shed": (
                retry_counters.get("rate_limited", 0)
                + retry_counters.get("overloaded", 0)
            ),
            "gave_up": retry_counters.get("gave_up", 0),
            "stuck_threads": len(stuck),
        },
        "wall_s": wall_s,
        "achieved_rate": submitted / wall_s if wall_s > 0 else 0.0,
        "latency_ms": {
            "submit": summarize(submit_ms),
            "poll": summarize(poll_ms),
        },
        "success": summarize(success_ratios),
        "retry": {
            "counters": retry_counters,
            "attempts": summarize([float(a) for a in attempts_all]),
        },
        "http": {
            "requests": requests,
            "connections": sum(connections),
            "requests_per_connection": requests / max(1, sum(connections)),
            # by client identity: its submit loop and stream thread need
            # one connection each, so 2 unless the daemon closed one
            "connections_per_client": connections,
        },
        "errors": errors[:50],
        "submissions": submissions,
    }


def markdown_table(report: Dict) -> str:
    """The slam report's headline numbers as a markdown table."""
    counts = report["counts"]
    http = report["http"]
    submit = report["latency_ms"]["submit"] or {}
    poll = report["latency_ms"]["poll"] or {}
    success = report["success"] or {}

    def ms(stats: Dict, key: str) -> str:
        return f"{stats[key]:.1f}" if key in stats else "-"

    def ratio(stats: Dict, key: str) -> str:
        return f"{stats[key]:.3f}" if key in stats else "-"

    lines = [
        "| metric | value |",
        "|---|---|",
        f"| scenario | {report['scenario']} |",
        f"| submitted / admitted / rejected | {counts['submitted']} / "
        f"{counts['admitted']} / {counts['rejected']} |",
        f"| errors | {counts['errors']} |",
        f"| achieved rate (req/s) | {report['achieved_rate']:.2f} |",
        f"| outcomes streamed (on-time) | {counts['outcomes']} "
        f"({counts['on_time']}) |",
        f"| retries / shed / gave-up | {counts['retries']} / "
        f"{counts['shed']} / {counts['gave_up']} |",
        f"| submit latency p50/p99 (ms) | {ms(submit, 'p50')} / "
        f"{ms(submit, 'p99')} |",
        f"| poll latency p50/p99 (ms) | {ms(poll, 'p50')} / "
        f"{ms(poll, 'p99')} |",
        f"| requests per connection | {http['requests_per_connection']:.1f} "
        f"({http['requests']} / {http['connections']}) |",
        f"| session success mean/p50/p99 | {ratio(success, 'mean')} / "
        f"{ratio(success, 'p50')} / {ratio(success, 'p99')} |",
        f"| wall time (s) | {report['wall_s']:.1f} |",
    ]
    return "\n".join(lines)


def write_slam_outputs(
    report: Dict, out_dir: str = ".", name: Optional[str] = None
) -> str:
    """Write ``SLAM_<name>.json`` (and return its path)."""
    safe = (name or report["scenario"]).replace("/", "-").replace(" ", "-")
    path = os.path.join(out_dir, f"SLAM_{safe}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


__all__ = [
    "SlamConfig",
    "markdown_table",
    "run_slam",
    "write_slam_outputs",
]
