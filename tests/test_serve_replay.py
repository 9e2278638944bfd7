"""The replay contract, through ``repro replay`` and a real daemon run.

One drained :class:`ServeApp` run leaves two files: the write-ahead log
``SERVE_<name>.wal`` (a header line, then one line per op as it
committed) and the drained log ``SERVE_<name>.json`` (scenario, ops,
fingerprints, summary).  ``repro replay`` must

* find the same scenario and the same ops in both;
* drop exactly a torn last line of a WAL, and say so;
* refuse a JSON log without fingerprints (exit 2);
* catch a JSON log whose fingerprints the replay does not reproduce
  (exit 3), with one replay;
* prove a WAL, which has no fingerprints, by replaying it twice and
  comparing the two (exit 3 when they differ).
"""

import dataclasses
import json
import re

import pytest

import repro.serve.log as serve_log
from repro.api.scenarios import ScenarioSpec
from repro.cli import main
from repro.serve.daemon import ServeApp

PAYLOAD = {"radius_m": 60.0, "period_s": 2.0, "freshness_s": 1.0}


def tiny_spec():
    return ScenarioSpec.from_dict(
        {
            "name": "replay-tiny",
            "description": "replay contract world",
            "mode": "jit",
            "seed": 2,
            "duration_s": 12.0,
            "requests": [],
        }
    )


@pytest.fixture(scope="module")
def drained(tmp_path_factory):
    """One drained run: (JSON log path, WAL path)."""
    out = tmp_path_factory.mktemp("drained")
    wal = str(out / "SERVE_oracle.wal")
    app = ServeApp(tiny_spec(), time_scale=0.0, wal_path=wal, wal_flush_every=1)
    app.submit("alice", dict(PAYLOAD))
    bob = app.submit("bob", dict(PAYLOAD, start_s=1.0))
    app.submit("carol", dict(PAYLOAD, start_s=2.0))
    app.cancel("bob", bob["session"])
    app.begin_drain()
    while app.pump_step() is not None:
        pass
    app.finish()
    return app.write_log(str(out), name="oracle"), wal


def wal_lines(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines(keepends=True)


def replay(path, capsys):
    """``repro replay <path>``: (exit code, stdout, stderr)."""
    code = main(["replay", str(path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def counts(ops):
    """The op tally ``repro replay`` prints."""
    kinds = [op["op"] for op in ops]
    text = f"{kinds.count('submit')} submissions, {kinds.count('cancel')} cancels"
    if "retire" in kinds:
        text += f", {kinds.count('retire')} retires"
    return text


def frame_counters(out):
    return re.search(r"\(sent=\d+, collided=\d+, delivered=\d+\)", out).group(0)


def test_json_and_wal_carry_the_same_scenario_and_ops(drained, capsys):
    json_path, wal = drained
    with open(json_path, encoding="utf-8") as fh:
        log = json.load(fh)
    lines = wal_lines(wal)
    header = json.loads(lines[0])
    assert header["format"] == "repro-serve-wal/1"
    assert log["format"] == "repro-serve-log/1"
    assert header["scenario"] == log["scenario"]
    ops = [json.loads(line) for line in lines[1:]]
    assert ops == log["ops"]
    assert {"submit", "cancel", "retire"} <= {op["op"] for op in ops}

    code, out, err = replay(json_path, capsys)
    assert (code, err) == (0, "")
    assert out.startswith(f"replay ok: {counts(ops)} — ")
    code, wal_out, err = replay(wal, capsys)
    assert (code, err) == (0, "")
    assert wal_out.startswith(f"partial replay ok: flushed prefix of {counts(ops)} ")
    assert "truncated" not in wal_out
    # both replays land on the run's recorded frame counters
    fp = log["fingerprints"]
    recorded = (f"(sent={fp['frames_sent']}, collided={fp['frames_collided']}, "
                f"delivered={fp['frames_delivered']})")
    assert frame_counters(out) == frame_counters(wal_out) == recorded


@pytest.mark.parametrize("keep", [1, 3, None])
def test_a_torn_tail_drops_exactly_the_torn_line(drained, tmp_path, capsys, keep):
    """``keep`` ops survive whole; the next one is cut mid-line."""
    _, wal = drained
    lines = wal_lines(wal)
    ops = [json.loads(line) for line in lines[1:]]
    keep = len(ops) - 1 if keep is None else keep
    torn = lines[1 + keep]
    cut = tmp_path / "torn.wal"
    cut.write_text("".join(lines[: 1 + keep]) + torn[: len(torn) // 2], encoding="utf-8")
    code, out, err = replay(cut, capsys)
    assert (code, err) == (0, "")
    assert out.startswith(f"partial replay ok: flushed prefix of {counts(ops[:keep])} ")
    assert out.rstrip().endswith(
        "(an unflushed tail line was truncated by the crash, as designed)"
    )

    whole = tmp_path / "whole.wal"
    whole.write_text("".join(lines[: 1 + keep]), encoding="utf-8")
    code, out, err = replay(whole, capsys)
    assert (code, err) == (0, "")
    assert out.startswith(f"partial replay ok: flushed prefix of {counts(ops[:keep])} ")
    assert "truncated" not in out


def test_an_unsigned_json_log_exits_2(drained, tmp_path, capsys):
    json_path, _ = drained
    with open(json_path, encoding="utf-8") as fh:
        log = json.load(fh)
    del log["fingerprints"]
    unsigned = tmp_path / "unsigned.json"
    unsigned.write_text(json.dumps(log), encoding="utf-8")
    code, out, err = replay(unsigned, capsys)
    assert (code, out) == (2, "")
    assert err == (
        f"repro replay: error: {unsigned} carries no fingerprints to verify against\n"
    )


@pytest.mark.parametrize("field", ["frames_sent", "frames_delivered"])
def test_a_tampered_json_log_exits_3(drained, tmp_path, capsys, field):
    json_path, _ = drained
    with open(json_path, encoding="utf-8") as fh:
        log = json.load(fh)
    log["fingerprints"][field] += 1
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(log), encoding="utf-8")
    code, out, err = replay(tampered, capsys)
    assert (code, out) == (3, "")
    assert err.startswith(
        "repro replay: REPLAY MISMATCH: the in-process replay diverged from "
        "the live run\n  recorded: "
    )


@pytest.fixture
def builds(monkeypatch):
    """Count the backends replay builds; ``builds.diverge`` makes the
    second one report a frame more than it sent."""

    class Builds(list):
        diverge = False

    built = Builds()
    real = serve_log.build_backend

    def counting(*args, **kwargs):
        backend = real(*args, **kwargs)
        built.append(backend)
        if built.diverge and len(built) == 2:
            stats = backend.stats
            backend.stats = lambda: dataclasses.replace(
                stats(), frames_sent=stats().frames_sent + 1
            )
        return backend

    monkeypatch.setattr(serve_log, "build_backend", counting)
    return built


def test_a_json_log_replays_once(drained, capsys, builds):
    json_path, _ = drained
    assert replay(json_path, capsys)[0] == 0
    assert len(builds) == 1


def test_a_wal_replays_its_prefix_twice(drained, capsys, builds):
    _, wal = drained
    assert replay(wal, capsys)[0] == 0
    assert len(builds) == 2
    assert builds[0] is not builds[1]


def test_two_diverging_replays_of_a_wal_exit_3(drained, capsys, builds):
    _, wal = drained
    builds.diverge = True
    code, out, err = replay(wal, capsys)
    assert (code, out) == (3, "")
    assert err.startswith(
        "repro replay: REPLAY MISMATCH: two executions of the flushed WAL "
        "prefix diverged — the log is not deterministic\n  first : "
    )
    assert len(builds) == 2
