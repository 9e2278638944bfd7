#!/usr/bin/env python3
"""Chaos drill: a hostile wire, a resilient client, and a crash-safe log.

This example walks the whole PR-9 robustness surface in one sitting:

1. **Wire chaos** — the scenario's fault plan grows a ``wire`` section
   (connection resets, injected 5xx, truncated response bodies, delays).
   The daemon executes it as HTTP middleware off a dedicated
   ``"faults.wire"`` RNG stream, so the simulated world underneath stays
   bit-identical to a chaos-free run.
2. **Edge admission** — a per-tenant token bucket plus live overload
   ceilings (live sessions, pump lag) shed excess submits *before* they
   touch any state: typed ``429 rate-limited`` / ``503 overloaded``
   responses carrying ``Retry-After``, zero replay perturbation.
3. **The resilient client** — bounded retries with decorrelated-jitter
   backoff (its own seeded stream) plus an idempotency key per submit:
   a committed submit whose response died on the wire retries into the
   *same* session, never a duplicate.
4. **The crash-safe WAL** — every committed op is appended to
   ``SERVE_<name>.wal`` as it happens.  We SIGKILL the daemon (well:
   stop answering and never drain, the in-process equivalent) and prove
   the flushed prefix replays bit-identically, twice over: a WAL carries
   no fingerprints, so ``verify_log`` compares two replays.

The CLI twin of this script is ``make chaos-smoke``::

    repro serve --file chaos_scenario.json --time-scale 4 --wal-flush 2 &
    repro slam  --file chaos_scenario.json --retries 8 --rate 16
    kill -KILL %1                         # no drain, no mercy
    repro replay SERVE_<name>.wal

Run:
    python examples/chaos_drill.py
"""

import os
import tempfile
import threading

from repro.api.scenarios import get_scenario
from repro.serve import (
    EdgeConfig,
    EdgeGuard,
    ServeApp,
    SlamConfig,
    WireError,
    make_server,
    markdown_table,
    read_log,
    run_slam,
    verify_log,
)

DURATION_S = float(os.environ.get("REPRO_EXAMPLE_DURATION", "24"))

#: every wire failure mode on, none overwhelming — a client with a few
#: retries should sail through
WIRE_CHAOS = {
    "reset_prob": 0.06,
    "delay_prob": 0.10,
    "delay_s": 0.05,
    "error_prob": 0.06,
    "truncate_prob": 0.06,
}


def demo_edge_guard() -> None:
    """The admission edge, in isolation on a fake clock.

    Rate 2/s with burst 2: two submits pass, the third is a typed 429
    whose Retry-After is the exact refill arithmetic; half a second
    later a token has accrued and the tenant is welcome again.  The
    other tenant never notices.
    """
    clock = [0.0]
    guard = EdgeGuard(EdgeConfig(rate=2.0, burst=2.0), clock=lambda: clock[0])
    for tenant, expect in [("alice", "ok"), ("alice", "ok"),
                           ("alice", "shed"), ("bob", "ok")]:
        try:
            guard.admit(tenant, live_sessions=0, pump_lag_s=0.0)
            verdict = "admitted"
        except WireError as exc:
            verdict = (f"shed: {exc.code} (Retry-After "
                       f"{exc.retry_after_s:g}s)")
        print(f"  t={clock[0]:.1f}s  {tenant:<5} -> {verdict}")
        assert verdict.startswith("admitted" if expect == "ok" else "shed")
    clock[0] = 0.5  # one token has refilled
    guard.admit("alice", live_sessions=0, pump_lag_s=0.0)
    print(f"  t={clock[0]:.1f}s  alice -> admitted (bucket refilled)")
    print(f"  edge counters: {guard.snapshot()!r}\n")


def main() -> int:
    spec = get_scenario("rush-hour-burst").with_overrides(
        duration_s=DURATION_S, faults={"wire": WIRE_CHAOS}
    )
    print(f"=== chaos_drill: {spec.name}, {spec.duration_s:g} sim-s, "
          f"wire chaos ON ===\n")

    # -- the edge, demonstrated deterministically ----------------------
    print("edge admission (token bucket, fake clock):")
    demo_edge_guard()

    # -- the daemon: chaos middleware + crash-safe WAL -----------------
    wal_path = os.path.join(tempfile.mkdtemp(), "SERVE_chaos-drill.wal")
    app = ServeApp(spec, time_scale=4.0, wal_path=wal_path, wal_flush_every=2)
    app.start()
    server = make_server(app, port=0)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    host, port = server.server_address
    url = f"http://{host}:{port}"
    print(f"daemon listening on {url} (chaos plane armed, WAL at "
          f"{wal_path})\n")

    # -- the slam: retrying clients vs the hostile wire ----------------
    config = SlamConfig(
        url=url, rate=16.0, clients=4, duration_s=90.0, retries=8, seed=1
    )
    report = run_slam(spec, config)
    print()
    print(markdown_table(report))
    counts = report["counts"]
    chaos = app.chaos.snapshot()
    print(f"\nchaos fired: {chaos['resets']} resets, "
          f"{chaos['injected_errors']} injected 5xx, "
          f"{chaos['truncations']} truncations, {chaos['delays']} delays")
    print(f"client absorbed: {counts['retries']} retries, "
          f"{counts['gave_up']} gave up, "
          f"{counts['sessions_finished']}/{counts['admitted']} sessions "
          f"completed")

    # -- the SIGKILL: stop answering, never drain, read the WAL --------
    server.shutdown()
    server.server_close()
    data = read_log(wal_path)
    submits = [op for op in data["ops"] if op["op"] == "submit"]
    unique = len({op["session"] for op in submits})
    print(f"\nWAL after the 'crash': {len(data['ops'])} flushed ops, "
          f"{len(submits)} submits, {unique} unique sessions "
          f"(double-admits: {len(submits) - unique})")
    ok, first, second = verify_log(data)
    if not ok:
        print("PARTIAL REPLAY DIVERGED — determinism broken!")
        return 1
    print(f"partial replay: two independent executions agree bit for bit "
          f"({len(first['sessions'])} sessions, "
          f"frames sent={first['frames_sent']})")
    return 0 if counts["errors"] == 0 and len(submits) == unique else 1


if __name__ == "__main__":
    raise SystemExit(main())
