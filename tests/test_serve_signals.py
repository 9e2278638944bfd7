"""A second SIGTERM or SIGINT during the drain is ignored.

``repro serve`` drains on its first SIGTERM or SIGINT: new submits get
503, live sessions run out (bounded by ``--drain-timeout``), ``finish()``
scores the run and the drained log is written.  Signals that arrive
after the first are ignored until all of that is done, so they can
neither kill the process mid-``finish()`` nor raise ``KeyboardInterrupt``
while the app lock is held.  A real daemon process is signalled three
times; it must exit 0 with both logs written, and ``repro replay`` must
prove both.
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

from repro.cli import main
from repro.serve.client import ServeClient

SRC = Path(__file__).resolve().parents[1] / "src"


def test_signals_during_the_drain_are_ignored(tmp_path, capsys):
    spec = {"name": "signals", "seed": 2, "duration_s": 40.0, "requests": []}
    (tmp_path / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    daemon = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", "--file", "spec.json",
            "--port", "0", "--time-scale", "4", "--drain-timeout", "60",
            "--name", "signals",
        ],
        cwd=tmp_path,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        banner = daemon.stdout.readline()
        url = banner.split("listening on ")[1].split()[0]
        # One session that outlives the first signal by about two wall
        # seconds (8 simulated seconds at time scale 4), so the drain waits.
        client = ServeClient(url, token="t")
        status, body = client.submit(
            {"radius_m": 60.0, "period_s": 2.0, "freshness_s": 1.0,
             "lifetime_s": 8.0}
        )
        client.close()
        assert status == 201 and body["status"] == "admitted", body
        daemon.send_signal(signal.SIGTERM)
        assert "draining" in daemon.stdout.readline()
        daemon.send_signal(signal.SIGTERM)
        daemon.send_signal(signal.SIGINT)
        out, err = daemon.communicate(timeout=60)
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.communicate()
    assert daemon.returncode == 0, err
    assert "drained=clean" in out and "Traceback" not in err
    for log in ("SERVE_signals.json", "SERVE_signals.wal"):
        assert main(["replay", str(tmp_path / log)]) == 0
        out = capsys.readouterr().out
        assert "replay ok" in out and "1 submissions" in out
