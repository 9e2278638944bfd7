"""The pin ledger: what every named run computes, pinned in one file.

``tests/data/pins.json`` holds one entry per run of :func:`named_runs`:

* ``single_user`` / ``four_user`` — the golden configs (:func:`golden_config`);
* ``fig4_jit`` / ``scale_16users`` / ``hetero_mix_8users`` — the canonical
  hot-path scenarios of ``repro.experiments.perf.perf_scenarios("quick")``,
  the configs ``repro profile`` runs, so the two cannot drift apart;
* ``cluster64_shards1`` — ``cluster_scale_64users`` through
  ``ClusterService(shards=1)``, checked against the pin captured from a
  ``MobiQueryService`` run of the same spec: this row is the single-shard
  identity gate;
* ``cluster64_shards4`` — the same spec on its own 4 shards and 4 workers
  (worker processes on a multi-core machine, the in-process lockstep on
  one core).  Different physics from ``shards1``; never compared with it.

Every run is at quick scale, whatever ``REPRO_BENCH_SCALE`` says.  Each
entry has two families, under different rules:

* ``results`` — what the simulation computes: frame counters, success
  ratios (exact floats included) and, for runs with a ``PowerReport``,
  the sleepers' and the always-on nodes' mean radio draw.  A pure optimisation or refactor never
  moves one.  Only a deliberate model change edits them, by hand from the
  recorder's table, in the commit that states the change.
* ``events`` — kernel events executed, an implementation property.  A
  change that packs work into fewer events legitimately moves it: re-record
  and add a line to the trail below.
* ``joules`` — for the runs with a ``PowerReport``, a sha256 over every
  node's ``repr(energy.readout())`` (joules and seconds per radio state,
  exact floats) in node-id order.  The rounded mean draws above miss a
  step that bills the right seconds to the wrong state; this does not.
  It is a ``results`` field in all but name: only a deliberate model
  change edits it, by hand.

Re-record with ``PYTHONPATH=src python tests/test_pins.py``.  It re-runs
every named run and prints the before/after table; it rewrites the
``events`` family only if no ``results`` field moved, and otherwise writes
nothing and exits 1.

Comment trail for ``events``:

* ``single_user`` / ``four_user``: 24363 / 89806 with one end-of-airtime
  event per frame x listener and per-node PSM boundary chains.  6309 /
  22796 since the PSM wake-wheel (one event per distinct beacon window
  boundary instead of one per sleeper; wake overrides no longer chain
  duplicate per-node boundary events, chains that grew O(overrides^2))
  and the MAC's broadcast completion folded into the channel's
  end-of-airtime batch event.  Results bit-identical, sleeper power draw
  included.
* ``fig4_jit`` / ``scale_16users`` / ``hetero_mix_8users``: 240132 /
  465442 / 238732 with per-listener receptions and per-node PSM boundary
  events.  41408 / 74773 / 50203 since the batched reception pipeline (a
  whole receiver cohort resolved by one end-of-airtime event) and the
  wake-wheel removed ~83 % of kernel events, results bit-identical.
"""

import hashlib
import json
import math
import pathlib
import sys
from functools import lru_cache, partial
from typing import Callable, Dict, List
from unittest import mock

import pytest

from repro.api import scenarios
from repro.api.scenarios import ScenarioSpec, get_scenario, run_scenario
from repro.cluster import ClusterService
from repro.core.metrics import measure_power
from repro.experiments.figures import SCALE_QUICK
from repro.experiments.perf import perf_scenarios

PINS = pathlib.Path(__file__).parent / "data" / "pins.json"

RESULTS_MOVED = "the simulation changed"
EVENTS_MOVED = (
    "the event structure changed; if no result moved, re-record with "
    "`PYTHONPATH=src python tests/test_pins.py`"
)


def golden_config(num_users: int) -> ScenarioSpec:
    """120 s, Rq=60 m, seed 1; extra users arrive staggered 2.5 s apart."""
    template = {"radius_m": 60.0}
    if num_users > 1:
        template.update(count=num_users, spacing_s=2.5)
    return ScenarioSpec(
        name=f"golden-{num_users}", seed=1, duration_s=120.0, requests=(template,)
    )


def _through_cluster(spec):
    """Run ``spec`` on a ClusterService, even at one shard."""
    backend = ClusterService(
        spec.world(),
        shards=spec.shards,
        workers=spec.workers,
        partitioner=spec.partitioner,
    )
    return run_scenario(spec, backend=backend)


def named_runs() -> Dict[str, Callable]:
    """Every pinned run as a zero-argument call; its spec is ``args[0]``."""
    runs = {
        "single_user": partial(run_scenario, golden_config(1)),
        "four_user": partial(run_scenario, golden_config(4)),
    }
    for name, spec in perf_scenarios(SCALE_QUICK).items():
        runs[name] = partial(run_scenario, spec)
    cluster = get_scenario("cluster_scale_64users")
    runs["cluster64_shards1"] = partial(
        _through_cluster, cluster.with_overrides(shards=1, workers=0)
    )
    runs["cluster64_shards4"] = partial(_through_cluster, cluster)
    return runs


def fingerprint(result) -> Dict[str, object]:
    """Every pinnable field of a ``ScenarioResult``.

    A one-world run also gives the mean draw of its sleepers and of its
    always-on nodes from its ``power``, rounded to 9 decimals (the
    nanowatt Fig. 8 is compared at): what every radio's RX, idle and sleep
    seconds add up to.
    """
    measured = {
        "frames_sent": result.frames_sent,
        "frames_delivered": result.frames_delivered,
        "frames_collided": result.frames_collided,
        "success_ratios": result.workload.success_ratios(),
        "mean_success": round(result.workload.mean_success_ratio(), 6),
        "events": result.events_executed,
    }
    if result.power is not None:
        measured["sleeper_power_w"] = round(result.power.mean_sleeper_power_w, 9)
        measured["active_power_w"] = round(result.power.mean_active_power_w, 9)
    return measured


def joule_digest(network) -> str:
    """sha256 over every node's ``repr(energy.readout())``, in node-id order."""
    readouts = "\n".join(
        repr(node.radio.energy.readout())
        for node in sorted(network.nodes, key=lambda node: node.node_id)
    )
    return hashlib.sha256(readouts.encode("ascii")).hexdigest()


def load_pins(path: pathlib.Path = PINS) -> Dict[str, dict]:
    return json.loads(path.read_text(encoding="utf-8"))


def pinned_fields(pin: dict, measured: dict) -> List[tuple]:
    """``(field, pinned, measured)`` for every field one ledger entry lists."""
    fields = [
        (f"results.{field}", value, measured[field])
        for field, value in pin["results"].items()
    ]
    for family in ("events", "joules"):
        if family in pin:
            fields.append((family, pin[family], measured[family]))
    return fields


def mismatches(pin: dict, measured: dict) -> List[str]:
    """Every pinned field ``measured`` does not reproduce, and which family."""
    return [
        f"{field}: pinned {old}, measured {new} — "
        + (EVENTS_MOVED if field == "events" else RESULTS_MOVED)
        for field, old, new in pinned_fields(pin, measured)
        if old != new
    ]


def unmatched_names(ledger: dict, names) -> List[str]:
    """Runs the registry and the ledger do not both know."""
    return [
        f"{name}: a named run with no ledger entry"
        for name in names
        if name not in ledger
    ] + [
        f"{name}: a ledger entry with no named run"
        for name in ledger
        if name not in names
    ]


def ledger_mismatches(name: str, result) -> List[str]:
    """How ``result`` departs from the ledger's pins for run ``name``.

    A bare result carries no network, so the ``joules`` family is left to
    the ledger's own run of ``name`` (:func:`measured`).
    """
    pin = dict(load_pins()[name])
    pin.pop("joules", None)
    return mismatches(pin, fingerprint(result))


@lru_cache(maxsize=None)
def measured(name: str) -> Dict[str, object]:
    """The fingerprint of named run ``name``, run at most once per session,
    with the ``joules`` digest of its network when the run reads power."""
    digests = []

    def measuring(network):
        report = measure_power(network)
        digests.append(joule_digest(network))
        return report

    with mock.patch.object(scenarios, "measure_power", measuring):
        fingerprinted = fingerprint(named_runs()[name]())
    if digests:
        (fingerprinted["joules"],) = digests
    return fingerprinted


def record(path: pathlib.Path, measured: Dict[str, dict]) -> int:
    """Print the before/after table; rewrite ``events`` if no result moved.

    Returns the exit status: 1, with nothing written, when a ``results``
    field moved or the ledger and ``measured`` name different runs.
    """
    ledger = load_pins(path)
    problems = unmatched_names(ledger, measured)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    print("| run | field | pinned | measured | |\n|---|---|---|---|---|")
    results_moved = False
    for name, pin in ledger.items():
        for field, old, new in pinned_fields(pin, measured[name]):
            moved = "moved" if old != new else ""
            print(f"| {name} | {field} | {old} | {new} | {moved} |")
            results_moved |= old != new and field != "events"
    if results_moved:
        print(
            f"a results field moved — {RESULTS_MOVED}; nothing written. A "
            "deliberate model change edits `results` by hand from this table.",
            file=sys.stderr,
        )
        return 1
    for name, pin in ledger.items():
        if "events" in pin:
            pin["events"] = measured[name]["events"]
    path.write_text(json.dumps(ledger, indent=2) + "\n", encoding="utf-8")
    return 0


# ----------------------------------------------------------------------
# The ledger check: each named run once, both families
# ----------------------------------------------------------------------
def test_ledger_names_match_registry():
    assert unmatched_names(load_pins(), named_runs()) == []


@pytest.mark.parametrize("name", list(named_runs()))
def test_pinned_run(name):
    problems = mismatches(load_pins()[name], measured(name))
    assert not problems, "\n".join(f"{name} {p}" for p in problems)


def test_every_power_run_pins_its_joules():
    """The digest sits beside every pinned mean draw, and nowhere else."""
    ledger = load_pins()
    assert [name for name, pin in ledger.items() if "joules" in pin] == [
        name for name, pin in ledger.items() if "sleeper_power_w" in pin["results"]
    ]


def test_runs_stay_quick_under_paper_scale(monkeypatch):
    """``REPRO_BENCH_SCALE=paper`` must not turn the check into a no-op."""
    monkeypatch.setenv("REPRO_BENCH_SCALE", "paper")
    assert perf_scenarios()["fig4_jit"].duration_s == 400.0  # the setting took
    durations = {name: run.args[0].duration_s for name, run in named_runs().items()}
    assert durations == {
        "single_user": 120.0,
        "four_user": 120.0,
        "fig4_jit": 150.0,
        "scale_16users": 120.0,
        "hetero_mix_8users": 120.0,
        "cluster64_shards1": 60.0,
        "cluster64_shards4": 60.0,
    }


# ----------------------------------------------------------------------
# Mutation checks of the checker and the recorder, on in-memory ledgers
# ----------------------------------------------------------------------
def _reproducing(ledger: dict) -> Dict[str, dict]:
    """What runs that reproduce every pin of ``ledger`` would measure."""
    return {
        name: {**pin["results"], "events": pin.get("events"), "joules": pin.get("joules")}
        for name, pin in ledger.items()
    }


class TestChecker:
    def test_moved_result_is_reported_as_results(self):
        pin = load_pins()["four_user"]
        ratios = list(pin["results"]["success_ratios"])
        ratios[2] = math.nextafter(ratios[2], 1.0)  # one ulp
        measured = {
            **pin["results"],
            "success_ratios": ratios,
            "events": pin["events"],
            "joules": pin["joules"],
        }
        (problem,) = mismatches(pin, measured)
        assert problem.startswith("results.success_ratios: ")
        assert problem.endswith(RESULTS_MOVED)

    def test_moved_event_count_is_reported_as_events(self):
        pin = load_pins()["fig4_jit"]
        measured = {**pin["results"], "events": pin["events"] + 1, "joules": pin["joules"]}
        (problem,) = mismatches(pin, measured)
        assert problem.startswith("events: ")
        assert problem.endswith(EVENTS_MOVED)

    def test_moved_joules_are_reported_as_results(self):
        pin = load_pins()["single_user"]
        measured = {**pin["results"], "events": pin["events"], "joules": "0" * 64}
        (problem,) = mismatches(pin, measured)
        assert problem.startswith("joules: ")
        assert problem.endswith(RESULTS_MOVED)

    def test_named_run_missing_from_ledger_fails(self):
        ledger = load_pins()
        del ledger["cluster64_shards1"]
        assert unmatched_names(ledger, named_runs()) == [
            "cluster64_shards1: a named run with no ledger entry"
        ]

    def test_ledger_run_without_named_run_fails(self):
        ledger = load_pins()
        ledger["ghost"] = {"results": {"frames_sent": 1}}
        assert unmatched_names(ledger, named_runs()) == [
            "ghost: a ledger entry with no named run"
        ]


class TestRecorder:
    @pytest.fixture
    def copy(self, tmp_path):
        path = tmp_path / "pins.json"
        path.write_bytes(PINS.read_bytes())
        return path

    def test_reproduced_ledger_is_rewritten_byte_identical(self, copy):
        assert record(copy, _reproducing(load_pins())) == 0
        assert copy.read_bytes() == PINS.read_bytes()

    def test_moved_events_are_rewritten(self, copy):
        measured = _reproducing(load_pins())
        measured["four_user"]["events"] += 5
        assert record(copy, measured) == 0
        expected = load_pins()
        expected["four_user"]["events"] += 5
        assert load_pins(copy) == expected

    def test_moved_result_refuses_to_write(self, copy, capsys):
        measured = _reproducing(load_pins())
        measured["cluster64_shards4"]["frames_delivered"] += 1
        measured["four_user"]["events"] += 5
        assert record(copy, measured) == 1
        assert copy.read_bytes() == PINS.read_bytes()
        row = "| cluster64_shards4 | results.frames_delivered | 639339 | 639340 | moved |"
        assert row in capsys.readouterr().out

    def test_unknown_run_refuses_to_write(self, copy):
        measured = _reproducing(load_pins())
        del measured["single_user"]
        assert record(copy, measured) == 1
        assert copy.read_bytes() == PINS.read_bytes()


if __name__ == "__main__":
    sys.exit(record(PINS, {name: measured(name) for name in named_runs()}))
