"""repro slam against a live in-process daemon, plus the replay CLI.

The slam tests spin up the real HTTP server on an ephemeral port with
``time_scale=0`` (free-run: simulated seconds cost only compute), fire
the load generator at it, and check the whole chain: admission counts,
streamed outcomes, percentile report, JSON artifact, clean drain, and
the bit-identical replay of the recorded submission log.
"""

import json
import threading

import pytest

from repro.api.scenarios import get_scenario
from repro.cli import main
from repro.serve.daemon import ServeApp, make_server
from repro.serve.log import read_log, verify_log
from repro.serve.slam import (
    SlamConfig,
    markdown_table,
    run_slam,
    write_slam_outputs,
)


@pytest.fixture()
def live_daemon():
    """A rush-hour-burst daemon on an ephemeral port.

    Paced (time_scale=4): a free-running daemon would sprint the 16 s
    horizon past the submitter before the burst lands, turning the tail
    of the burst into spurious horizon-passed refusals.
    """
    spec = get_scenario("rush-hour-burst").with_overrides(duration_s=16.0)
    app = ServeApp(spec, time_scale=4.0)
    app.start()
    server = make_server(app, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address
    try:
        yield spec, app, f"http://{host}:{port}"
    finally:
        server.shutdown()
        server.server_close()
        app.finish()


def test_slam_sustains_the_burst_and_replays(live_daemon, tmp_path):
    spec, app, url = live_daemon
    config = SlamConfig(
        url=url, rate=50.0, clients=3, duration_s=60.0, wait_s=0.2
    )
    report = run_slam(spec, config)

    counts = report["counts"]
    assert counts["payloads"] == 12  # the 12-user burst
    assert counts["submitted"] == 12
    assert counts["admitted"] == 12  # phase-assign shifts, never rejects
    assert counts["rejected"] == 0
    assert counts["errors"] == 0
    assert counts["sessions_finished"] == 12
    assert counts["outcomes"] > 0
    assert report["achieved_rate"] > 0

    latency = report["latency_ms"]
    for leg in ("submit", "poll"):
        assert latency[leg] is not None
        assert set(latency[leg]) == {
            "count", "mean", "p50", "p90", "p99", "max",
        }
    assert report["success"] is not None
    assert 0.0 <= report["success"]["mean"] <= 1.0

    table = markdown_table(report)
    assert "| metric | value |" in table
    assert "rush-hour-burst" in table

    path = write_slam_outputs(report, str(tmp_path), name="slamtest")
    assert path.endswith("SLAM_slamtest.json")
    on_disk = json.loads((tmp_path / "SLAM_slamtest.json").read_text())
    assert on_disk["counts"]["admitted"] == 12
    assert len(on_disk["submissions"]) == 12

    # Drain the daemon and prove the whole slammed run replays
    # bit-identically from its submission log.
    app.begin_drain()
    assert app.wait_drained(60.0)
    summary = app.finish()
    assert summary["leak_total"] == 0, summary["leaks"]
    assert summary["sessions"]["admitted"] == 12
    log = read_log(app.log.wal_path)
    log["fingerprints"] = summary["fingerprints"]
    ok, recorded, replayed = verify_log(log)
    assert ok, f"replay diverged:\nlive    {recorded}\nreplay  {replayed}"


def test_slam_cli_exit_codes(tmp_path):
    # unreachable daemon: the healthz fail-fast maps to exit 3
    rc = main([
        "slam", "rush-hour-burst", "--sim-duration", "16",
        "--url", "http://127.0.0.1:9", "--duration", "1",
        "--out-dir", str(tmp_path),
    ])
    assert rc == 3
    # usage errors: unknown scenario, bad config
    assert main(["slam", "no-such-scenario", "--out-dir", str(tmp_path)]) == 2
    assert main([
        "slam", "rush-hour-burst", "--rate", "0",
        "--out-dir", str(tmp_path),
    ]) == 2


def test_slam_config_validation():
    good = dict(url="http://x", rate=1.0, clients=1, duration_s=1.0)
    SlamConfig(**good)
    for field, bad in (
        ("rate", 0.0), ("clients", 0), ("duration_s", 0.0), ("wait_s", -1.0)
    ):
        with pytest.raises(ValueError):
            SlamConfig(**{**good, field: bad})


# ----------------------------------------------------------------------
# repro replay — the determinism gate as a CLI
# ----------------------------------------------------------------------
def _recorded_log(tmp_path):
    """Run a tiny daemon session and return its written log path."""
    spec = get_scenario("rush-hour-burst").with_overrides(duration_s=8.0)
    app = ServeApp(spec, time_scale=0.0)
    app.start()
    app.submit("cli", {"radius_m": 60.0, "period_s": 2.0, "freshness_s": 1.0})
    app.begin_drain()
    assert app.wait_drained(60.0)
    app.finish()
    path = app.write_log(str(tmp_path), name="replaytest")
    return path


def test_replay_cli_ok(tmp_path, capsys):
    path = _recorded_log(tmp_path)
    assert main(["replay", path]) == 0
    out = capsys.readouterr().out
    assert "replay ok: 1 submissions" in out
    assert "reproduced bit-identically" in out


def test_replay_cli_detects_tampering(tmp_path, capsys):
    path = _recorded_log(tmp_path)
    data = json.loads(open(path).read())
    data["fingerprints"]["frames_sent"] += 1
    with open(path, "w") as fh:
        json.dump(data, fh)
    assert main(["replay", path]) == 3
    assert "REPLAY MISMATCH" in capsys.readouterr().err


def test_replay_cli_usage_errors(tmp_path, capsys):
    assert main(["replay", str(tmp_path / "nope.json")]) == 2

    path = _recorded_log(tmp_path)
    data = json.loads(open(path).read())
    data.pop("fingerprints")
    stripped = tmp_path / "stripped.json"
    stripped.write_text(json.dumps(data))
    assert main(["replay", str(stripped)]) == 2
    assert "no fingerprints" in capsys.readouterr().err

    bad_format = tmp_path / "bad.json"
    bad_format.write_text(json.dumps({"format": "not-a-serve-log"}))
    assert main(["replay", str(bad_format)]) == 2

    not_object = tmp_path / "list.json"
    not_object.write_text("[1, 2]")
    assert main(["replay", str(not_object)]) == 2
