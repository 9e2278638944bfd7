"""Byte-exact characterisation of the ``repro`` front door.

Each case runs ``main(argv)`` from inside ``tests/data/cli`` (so the
relative input paths print the same everywhere) and compares exit code,
stdout and stderr with the committed transcript ``<name>.txt``.  The
transcripts were recorded before ``cli.py`` was collapsed onto one spec
resolver and one error boundary, and a refactor of the CLI lands only
with them byte-unchanged.  Six date from that refactor instead:

* ``run-shards-2`` — the path exited 2 (``result() on a handle of a closed
  service``) until the refactor fixed it.
* ``scenario-missing-file``, ``sweep-missing-axes``, ``fuzz-missing-file``,
  ``serve-missing-file``, ``replay-partial-missing`` — these five printed
  the bare errno (``error: 2``) where ``run`` and ``replay`` printed
  ``[Errno 2] No such file or directory: ...``; one boundary prints one
  form, the one that names the file.  Exit codes are unchanged.

Two date from checking a spec once, at load: ``repro run`` keeps no
checks of its own, so ``run-shards-0`` prints the spec's ``shards must be
>= 1`` (it printed ``--shards must be >= 1``), and ``run-workers-negative``
is refused like ``repro scenario --workers -1`` (the flag was clamped to 0).

Two date from the one plain-data loader: ``scenario-wrong-type`` is a
scenario file with a value of the wrong JSON type, refused with the key
and the value (it used to fail with Python's own comparison error), and
``run-infinite-duration`` is refused at load (it used to run forever).

``scenario-fig4-cell`` re-runs a figure cell from its file: the
quick-scale Fig. 4 bar (MQ-JIT, Tsleep = 9 s) exactly as ``repro fig 4``
runs it, stored as the ``ScenarioSpec`` ``fig4-cell.json``.

``served.json`` and ``served.wal`` were written before the daemon retired a
session at its last outcome (PR 17) and carry no ``retire`` op: their
transcripts are the proof that such a log still replays to its recorded
fingerprints.  ``replay-retired-ok`` replays one that does.

The four ``replay-partial-*`` cases pass no flag since ``repro replay``
got one reader for both files: the file says whether it is a drained
log or a WAL.  Their output is unchanged but for
``replay-partial-not-a-wal``, which now gets the one format error that
``replay-wrong-format`` gets, naming both formats.

Re-record (only when a behaviour change is intended) with
``PYTHONPATH=src python tests/test_cli_fixtures.py``.
"""

import contextlib
import io
import os
import pathlib

import pytest

DATA = pathlib.Path(__file__).parent / "data" / "cli"

CASES = {
    # successful runs
    "run-one-user": ["run", "--duration", "20", "--seed", "4"],
    "run-three-users": ["run", "--users", "3", "--duration", "20"],
    "run-idle": ["run", "--mode", "idle", "--duration", "10"],
    "run-faulted": ["run", "--duration", "20", "--faults", "blackout.json"],
    "run-fleet-faulted": [
        "run", "--users", "3", "--duration", "20", "--faults", "blackout.json",
    ],
    "run-workers-note": ["run", "--duration", "10", "--workers", "2"],
    "run-shards-2": ["run", "--users", "4", "--shards", "2", "--duration", "20"],
    "scenario-list": ["scenario", "--list"],
    "scenario-paper-default": ["scenario", "paper-default", "--duration", "20"],
    "scenario-sharded": [
        "scenario", "heterogeneous-mix", "--duration", "20", "--shards", "2",
    ],
    "scenario-rejections": ["scenario", "--file", "capped.json"],
    "scenario-fig4-cell": ["scenario", "--file", "fig4-cell.json"],
    "scenario-workers-note": [
        "scenario", "paper-default", "--duration", "10", "--workers", "2",
    ],
    "replay-ok": ["replay", "served.json"],
    "replay-retired-ok": ["replay", "served-retired.json"],
    "replay-partial-ok": ["replay", "served.wal"],
    "replay-partial-torn-tail": ["replay", "served-torn.wal"],
    "analysis": ["analysis"],
    "topology": ["topology", "--seed", "1"],
    # one failing invocation (or more) per subcommand
    "run-shards-0": ["run", "--shards", "0"],
    "run-bad-freshness": ["run", "--freshness", "5"],
    "run-workers-negative": ["run", "--workers", "-1"],
    "run-missing-faults": ["run", "--faults", "missing.json"],
    "run-late-arrival": ["run", "--users", "3", "--spacing", "30", "--duration", "20"],
    "run-infinite-duration": ["run", "--duration", "inf"],
    "scenario-unknown": ["scenario", "nope"],
    "scenario-no-name": ["scenario"],
    "scenario-missing-file": ["scenario", "--file", "missing.json"],
    "scenario-bad-json": ["scenario", "--file", "bad.json"],
    "scenario-shards-0": ["scenario", "paper-default", "--shards", "0"],
    "scenario-wrong-type": ["scenario", "--file", "wrong-type.json"],
    "sweep-no-base": ["sweep"],
    "sweep-unknown": ["sweep", "nope"],
    "sweep-bad-axis": ["sweep", "paper-default", "--users", "0"],
    "sweep-bad-list": ["sweep", "paper-default", "--shards", "1,x"],
    "sweep-missing-axes": ["sweep", "paper-default", "--axes", "missing.json"],
    "sweep-axes-not-object": ["sweep", "paper-default", "--axes", "not-a-log.json"],
    "fuzz-no-base": ["fuzz"],
    "fuzz-unknown": ["fuzz", "nope"],
    "fuzz-missing-file": ["fuzz", "--file", "missing.json"],
    "serve-no-scenario": ["serve"],
    "serve-unknown": ["serve", "nope"],
    "serve-missing-file": ["serve", "--file", "missing.json"],
    "serve-bad-json": ["serve", "--file", "bad.json"],
    "serve-bad-drain-timeout": ["serve", "paper-default", "--drain-timeout", "-1"],
    "serve-bad-time-scale": ["serve", "paper-default", "--time-scale", "-1"],
    "serve-shards-0": ["serve", "paper-default", "--shards", "0"],
    "slam-no-scenario": ["slam"],
    "slam-unknown": ["slam", "nope"],
    "slam-bad-rate": ["slam", "paper-default", "--rate", "0"],
    "replay-missing": ["replay", "missing.json"],
    "replay-bad-json": ["replay", "bad.json"],
    "replay-not-a-log": ["replay", "not-a-log.json"],
    "replay-wrong-format": ["replay", "not-a-wal.wal"],
    "replay-mismatch": ["replay", "served-tampered.json"],
    "replay-no-fingerprints": ["replay", "served-unsigned.json"],
    "replay-partial-missing": ["replay", "missing.wal"],
    "replay-partial-not-a-wal": ["replay", "not-a-wal.wal"],
    "profile-bad-sort": ["profile", "fig4_jit", "--sort", "bogus"],
    "profile-bad-top": ["profile", "fig4_jit", "--top", "0"],
    "profile-unknown": ["profile", "nope"],
    "profile-bad-duration": ["profile", "fig4_jit", "--duration", "-1"],
}


def transcript(argv) -> str:
    """Run ``repro <argv>`` in-process; render exit code and both streams."""
    from repro.cli import main

    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(DATA)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    return (
        f"$ repro {' '.join(argv)}\nexit {code}\n"
        f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_transcript_is_byte_identical(name):
    expected = (DATA / f"{name}.txt").read_text(encoding="utf-8")
    assert transcript(CASES[name]) == expected


if __name__ == "__main__":
    for case, case_argv in sorted(CASES.items()):
        (DATA / f"{case}.txt").write_text(transcript(case_argv), encoding="utf-8")
        print(f"recorded {case}")
