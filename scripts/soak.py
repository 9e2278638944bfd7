"""The daemon's steady state, long form (``make soak-smoke``).

    PYTHONPATH=src python3 scripts/soak.py [sessions]

Pushes 2 000 eight-second sessions through an in-process, free-running
``ServeApp`` (``time_scale=0``) on the paper-default field, eight in flight
at a time, a tenth of them cancelled as soon as they are in.  Every 100
finished sessions it samples what a long-lived daemon must keep flat: the
proxies registered on the channel, the kernel's pending events and the
protocol state keyed by a session (the world), the wall time the 100 took
(its cost), and the process RSS.  After a warm-up of a fifth of the run it
fails if

* ``registered_mobiles`` or the protocol engine's session records ever
  differ from the live sessions, or the median world census is over 1.5
  times the warm-up's (the world follows the live sessions);
* the median block of 100 took over 1.5 times the warm-up's (the cost
  follows them too: before sessions were retired at their last outcome,
  block 10 took five times as long as block 1);
* RSS grows by more than ``RSS_KB_PER_SESSION`` per session.  RSS is *not*
  flat yet: the handle (with its closed gateway and delivery records) and
  ring of every session ever served are kept until they get a TTL, about
  14 KB a session (the log's ops are on disk only), and that swamps what
  the world itself holds — the census above is what watches
  the world; this bound only catches a session starting to retain more
  than it does today.

Then it writes ``SERVE_soak-smoke.json`` / ``.wal`` and replays the log;
exit 0 means flat, leak-free and bit-identical.  ``tests/
test_serve_steady_state.py`` is the short form that runs in tier-1.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import deque

from repro.api.scenarios import ScenarioSpec
from repro.cli import main as repro
from repro.serve.daemon import ServeApp

LIFETIME_S = 8.0
IN_FLIGHT = 8
BLOCK = 100
RSS_KB_PER_SESSION = 32.0


def payload(i: int, now: float) -> dict:
    """Session ``i``: a short beat on a 4 x 4 grid of the 450 m field."""
    x, y = 60.0 + 100.0 * (i % 4), 60.0 + 100.0 * (i // 4 % 4)
    return {
        "radius_m": 60.0,
        "period_s": 2.0,
        "freshness_s": 1.0,
        "lifetime_s": LIFETIME_S,
        # the first arrivals are spread over one lifetime, so departures
        # (and the arrivals that replace them) stay spread for the whole run
        "start_s": now + (i * LIFETIME_S / IN_FLIGHT if i < IN_FLIGHT else 0.0),
        "path": {
            "kind": "patrol",
            "waypoints": [[x, y], [x + 40.0, y], [x + 40.0, y + 40.0], [x, y]],
            "speed": 3.0,
            "loops": 2,
        },
    }


def rss_mb() -> float:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * 4096 / 1e6


def engine_sessions(app: ServeApp) -> int:
    """Sessions the protocol engines hold a record for, over every world."""
    return sum(service.protocol.session_count() for service in app._services())


def world_census(app: ServeApp) -> int:
    """Kernel events pending plus protocol/flood state keyed by a session and
    the sessions not torn down, over every world — ``leak_census`` without
    advancing the clock."""
    total = engine_sessions(app)
    for service in app._services():
        protocol = service.protocol
        total += (
            service.sim.pending_count
            + protocol.tree_state_count()
            + protocol.collector_count()
            + protocol.pending_batch_count()
            + service.flood.live_flood_count()
            + len(service.unreleased_handles())
        )
    return total


def soak(sessions: int) -> int:
    # Room for the worst case, one session at a time: how many share a
    # lifetime is up to the race between this thread and the free-running
    # pump, and an idle world costs next to nothing to run out.
    horizon = (sessions + 10) * LIFETIME_S
    spec = ScenarioSpec.from_dict(
        {"name": "soak-smoke", "mode": "jit", "seed": 1, "duration_s": horizon}
    )
    app = ServeApp(spec, time_scale=0.0, wal_path="SERVE_soak-smoke.wal")
    app.start()
    flying: deque = deque()
    samples = []
    submitted = finished = 0
    block_started = time.perf_counter()
    print("finished  mobiles  live  world  block_s  rss_mb  engine")
    while finished < sessions:
        while submitted < sessions and len(flying) < IN_FLIGHT:
            now = app.healthz()["now"]
            flying.append(app.submit("soak", payload(submitted, now))["session"])
            submitted += 1
            if submitted % 10 == 0:  # a tenth leave early
                app.cancel("soak", flying[-1])
        sid = flying.popleft()
        while not app.results("soak", sid, after=10**6, wait_s=30.0)["done"]:
            pass
        finished += 1
        if finished % BLOCK == 0:
            with app._work:
                server = app.stats_payload()["server"]
                sample = (
                    finished,
                    server["world"]["registered_mobiles"],
                    server["sessions"]["live"],
                    world_census(app),
                    time.perf_counter() - block_started,
                    rss_mb(),
                    engine_sessions(app),
                )
            samples.append(sample)
            print("%8d  %7d  %4d  %5d  %7.2f  %6.1f  %6d" % sample, flush=True)
            block_started = time.perf_counter()
    app.begin_drain()
    drained = app.wait_drained(60.0)
    summary = app.finish()
    path = app.write_log(name="soak-smoke")

    warm = max(1, len(samples) // 5)
    early, late = samples[:warm], samples[warm:] or samples[-1:]
    problems = []
    if not drained:
        problems.append("the daemon did not drain in 60 s")
    if summary["leak_total"] or summary["registered_mobiles"]:
        problems.append(
            f"after drain: leaks {summary['leaks']}, "
            f"{summary['registered_mobiles']} registered mobiles"
        )
    if any(s[1] != s[2] or s[1] > IN_FLIGHT for s in samples):
        problems.append("registered mobiles != live sessions at a sample")
    if any(s[6] != s[2] for s in samples):
        problems.append("engine session records != live sessions at a sample")
    # medians: one sample can catch a flood or a slow moment of the machine
    for what, column, slack in (("world census", 3, 1.5), ("wall s per block", 4, 1.5)):
        before = statistics.median(s[column] for s in early)
        after = statistics.median(s[column] for s in late)
        if after > slack * before:
            problems.append(
                f"{what} grew: median {before:.3g} in warm-up, {after:.3g} after"
            )
    kb_per_session = (
        1e3 * (samples[-1][5] - early[-1][5]) / max(1, samples[-1][0] - early[-1][0])
    )
    print(f"rss after warm-up: {kb_per_session:+.1f} KB per session "
          f"(bound {RSS_KB_PER_SESSION:g}; handles and rings are kept)")
    if kb_per_session > RSS_KB_PER_SESSION:
        problems.append(f"rss grew {kb_per_session:.1f} KB per session")
    for problem in problems:
        print(f"soak: FAILED: {problem}", file=sys.stderr)
    return 1 if problems else repro(["replay", path])


if __name__ == "__main__":
    sys.exit(soak(int(sys.argv[1]) if len(sys.argv) > 1 else 2000))
