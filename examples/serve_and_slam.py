#!/usr/bin/env python3
"""Serve and slam: the always-on daemon, its wire API, and the proof.

``repro serve`` puts a query backend behind an HTTP/JSON session API:
clients POST query payloads, long-poll per-period outcomes as the
simulated world advances in real (scaled) time, and cancel mid-flight —
each under its own ``X-Repro-Token`` identity, with foreign sessions
refused by a typed error contract.  ``repro slam`` is the load
generator: it replays a scenario's arrival process at a configured rate
from N concurrent clients and reports admission/latency/success
percentiles.

The determinism lever: the daemon appends every submission (payload +
admission decision + arrival time) to its write-ahead op log as it
commits.  After the drain this script writes ``SERVE_<name>.json`` (the
closed log plus the live run's result fingerprints), reads it back with
``read_log`` and checks with ``verify_log`` that the in-process
re-execution reproduces those fingerprints bit for bit — a load test and
a determinism proof in one artifact.

Everything here runs in-process on an ephemeral port; the CLI twin is::

    repro serve rush-hour-burst --port 8600 --time-scale 6 &
    repro slam  rush-hour-burst --url http://127.0.0.1:8600 --rate 16
    kill -TERM %1   # graceful drain, writes SERVE_<name>.json
    repro replay SERVE_rush-hour-burst.json

Run:
    python examples/serve_and_slam.py
"""

import os
import tempfile
import threading

from repro.api.scenarios import get_scenario
from repro.serve import (
    ServeApp,
    ServeClient,
    SlamConfig,
    make_server,
    markdown_table,
    read_log,
    run_slam,
    verify_log,
)

DURATION_S = float(os.environ.get("REPRO_EXAMPLE_DURATION", "30"))


def main() -> int:
    spec = get_scenario("rush-hour-burst").with_overrides(
        duration_s=DURATION_S
    )
    print(f"=== serve_and_slam: {spec.name}, {spec.duration_s:g} sim-s ===\n")

    # -- the daemon: any QueryBackend behind HTTP/JSON -----------------
    # time_scale = simulated seconds per wall second.  Paced, so the
    # slam's burst lands before the horizon; the CLI default is 8.
    app = ServeApp(spec, time_scale=6.0)
    app.start()
    server = make_server(app, port=0)  # ephemeral port
    threading.Thread(target=server.serve_forever, daemon=True).start()
    host, port = server.server_address
    url = f"http://{host}:{port}"
    print(f"daemon listening on {url}")
    print(f"healthz: {ServeClient(url, 'probe').healthz()}\n")

    # -- the load generator: N clients replaying the arrival process ---
    config = SlamConfig(url=url, rate=16.0, clients=4, duration_s=90.0)
    report = run_slam(spec, config)
    print(markdown_table(report))

    # -- tenancy: a foreign token cannot touch another client's session
    victim = report["submissions"][0]["session"]
    status, resp = ServeClient(url, "mallory").request(
        "DELETE", f"/sessions/{victim}"
    )
    print(f"\nforeign cancel of session {victim}: HTTP {status} "
          f"{resp['error']['code']}")

    # -- graceful drain: no new submits, in-flight sessions finish -----
    app.begin_drain()
    drained = app.wait_drained(timeout_s=120.0)
    summary = app.finish()
    server.shutdown()
    server.server_close()
    sessions = summary["sessions"]
    print(f"\ndrain {'clean' if drained else 'TIMED OUT'}: "
          f"submitted={sessions['submitted']} admitted={sessions['admitted']} "
          f"rejected={sessions['rejected']} leak_total={summary['leak_total']}")

    # -- the replay proof ----------------------------------------------
    path = app.write_log(out_dir=tempfile.mkdtemp())
    ok, recorded, replayed = verify_log(read_log(path))
    fp = replayed
    print(f"replay {'ok' if ok else 'MISMATCH'}: "
          f"{len(fp['sessions'])} sessions, frames sent={fp['frames_sent']} "
          f"collided={fp['frames_collided']} "
          f"delivered={fp['frames_delivered']}")
    if not ok:
        print(f"  recorded: {recorded}\n  replayed: {replayed}")
        return 1
    if summary["leak_total"] or report["counts"]["errors"]:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
