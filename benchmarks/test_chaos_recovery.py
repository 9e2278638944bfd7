"""The chaos-recovery drill: the pinned wire-fault + crash benchmark.

``chaos-recovery`` slams the rush-hour burst through a daemon whose wire
is actively hostile — connection resets, injected 5xx, truncated bodies,
and response delays, all drawn from the dedicated ``"faults.wire"``
stream — then simulates a SIGKILL (the WAL file is read back exactly as
the dying process left it: flushed prefix only, buffered tail lost).
This module gates the PR-9 robustness acceptance criteria:

* the retrying slam client **completes 100% of admitted sessions** with
  zero errors and zero gave-ups — bounded decorrelated-jitter retries
  absorb every chaos action;
* **zero double-admits** — truncated submit responses force client
  retries, and the idempotency keys dedup every one of them: WAL submit
  ops == admitted sessions == unique session ids;
* the killed daemon's **flushed WAL prefix replays bit-identically**
  (two independent executions agree on every fingerprint).

Measured at the pinned chaos plan (probs 0.06/0.10/0.06/0.06, seed 3,
12-user burst, 8 retries): typically ~10-25 chaos actions fire per run,
absorbed by ~1.1-1.6 mean attempts per request.
"""

import threading

from repro.api.scenarios import get_scenario
from repro.serve.daemon import ServeApp, make_server
from repro.serve.log import read_log, verify_log
from repro.serve.slam import SlamConfig, run_slam

#: the pinned chaos plan: every wire failure mode on, none overwhelming
CHAOS_WIRE = {
    "reset_prob": 0.06,
    "delay_prob": 0.10,
    "delay_s": 0.05,
    "error_prob": 0.06,
    "truncate_prob": 0.06,
}
#: bounded retries per request — enough that P(gave up) is negligible
SLAM_RETRIES = 8


def _format_drill(report, chaos_snapshot, wal_ops) -> str:
    counts = report["counts"]
    attempts = report["retry"]["attempts"] or {}
    lines = [
        "Chaos-recovery drill (rush-hour-burst + wire chaos + SIGKILL)",
        "",
        " wire chaos fired   : "
        f"{chaos_snapshot['resets']} resets, "
        f"{chaos_snapshot['injected_errors']} injected 5xx, "
        f"{chaos_snapshot['truncations']} truncations, "
        f"{chaos_snapshot['delays']} delays "
        f"({chaos_snapshot['requests']} requests seen)",
        f" slam               : {counts['submitted']} submitted, "
        f"{counts['admitted']} admitted, {counts['errors']} errors",
        f" retries absorbed   : {counts['retries']} "
        f"(mean attempts {attempts.get('mean', 1.0):.2f}, "
        f"p99 {attempts.get('p99', 1.0):.0f}; gave up {counts['gave_up']})",
        f" sessions completed : {counts['sessions_finished']} / "
        f"{counts['admitted']}",
        f" WAL flushed prefix : {wal_ops} ops replayed bit-identically",
    ]
    return "\n".join(lines)


class TestChaosRecovery:
    def test_drill_completes_dedups_and_replays(self, emit, once, tmp_path):
        spec = get_scenario("rush-hour-burst").with_overrides(
            duration_s=30.0, faults={"wire": CHAOS_WIRE}
        )
        wal_path = str(tmp_path / "SERVE_chaos-recovery.wal")
        app = ServeApp(
            spec, time_scale=6.0, wal_path=wal_path, wal_flush_every=2
        )
        assert app.chaos is not None  # the plan actually armed the plane
        app.start()
        server = make_server(app, port=0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        host, port = server.server_address

        config = SlamConfig(
            url=f"http://{host}:{port}",
            rate=16.0,
            clients=4,
            duration_s=90.0,
            retries=SLAM_RETRIES,
            seed=1,
        )
        report = once(run_slam, spec, config)

        # The SIGKILL: stop answering and read the WAL exactly as it sits
        # on disk — the dying daemon never drains, flushes, or closes it.
        server.shutdown()
        server.server_close()
        chaos_snapshot = app.chaos.snapshot()
        data = read_log(wal_path)
        emit(_format_drill(report, chaos_snapshot, len(data["ops"])))

        # Chaos actually fired (else the drill proved nothing).
        assert (
            chaos_snapshot["resets"]
            + chaos_snapshot["injected_errors"]
            + chaos_snapshot["truncations"]
            + chaos_snapshot["delays"]
        ) > 0, chaos_snapshot

        # 100% of the burst admitted and completed, zero errors/gave-ups.
        counts = report["counts"]
        assert counts["errors"] == 0, report["errors"][:5]
        assert counts["admitted"] == 12
        assert counts["sessions_finished"] == counts["admitted"]
        assert counts["gave_up"] == 0
        assert counts["stuck_threads"] == 0

        # Zero double-admits: every WAL submit op is a distinct session,
        # and the flushed count matches what the daemon durably promised.
        submits = [op for op in data["ops"] if op["op"] == "submit"]
        assert len(submits) <= counts["admitted"]  # tail may be unflushed
        assert len(submits) >= counts["admitted"] - (app.log.flush_every - 1)
        assert len({op["session"] for op in submits}) == len(submits)
        assert len(data["ops"]) == app.log.flushed_ops

        # The flushed prefix replays bit-identically, twice over.
        ok, first, second = verify_log(data)
        assert ok, f"prefix replay diverged:\n{first}\n{second}"
        assert len(first["sessions"]) == len(submits)
