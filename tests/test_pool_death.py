"""A worker pool that dies mid-``parallel_map`` falls back to the serial path.

``parallel_map`` (``repro.cluster.transport``) collects ``pool.map``'s
results with one ``list(...)`` inside its ``try``: a worker that exits
mid-map breaks the pool, the exception discards every result gathered so
far, and the call returns ``None``.  Its results are therefore applied all
or nothing — a caller either gets every shard's outcome or none, so no
shard can be scored twice (once from a worker, once from the serial
fallback).  Both callers share that fallback: the cluster's ``workers=N``
batch finalize and ``run_replications_parallel``.
"""

import os
import pickle

from repro.api.scenarios import (
    ScenarioSpec,
    build_backend,
    get_scenario,
    run_scenario,
)
from repro.cluster import transport
from repro.cluster.transport import parallel_map, run_shard_plan
from repro.experiments import runner
from repro.experiments.runner import (
    _replicate,
    run_replications,
    run_replications_parallel,
)

from .test_pins import fingerprint

#: a small two-shard world whose batch finalize runs on two workers
SPEC = ScenarioSpec(
    name="pool-death",
    seed=3,
    duration_s=16.0,
    network={"n_nodes": 120, "sleep_period_s": 3.0},
    requests=({"radius_m": 50.0, "count": 4, "spacing_s": 1.5},),
    shards=2,
    workers=2,
)


def _exit_in_shard_zero(plan):
    """The shard task, but the worker running shard 0 dies without a word."""
    if plan.shard == 0:
        os._exit(3)
    return run_shard_plan(plan)


def _exit_on_seed_one(spec):
    """One replication, but the worker running seed 1 dies without a word."""
    if spec.seed == 1:
        os._exit(3)
    return _replicate(spec)


def _square(x):
    return x * x


def _exit_on_zero(x):
    if x == 0:
        os._exit(3)
    return x


def recording_parallel_map(monkeypatch):
    """Patch ``parallel_map`` to record what each call returned."""
    returned = []

    def recording(fn, items, max_workers):
        result = parallel_map(fn, items, max_workers=max_workers)
        returned.append(result)
        return result

    monkeypatch.setattr(transport, "parallel_map", recording)
    return returned


def test_parallel_map_returns_none_when_a_worker_dies():
    assert parallel_map(_square, [1, 2], max_workers=2) == [1, 4]
    assert parallel_map(_exit_on_zero, [0, 1], max_workers=2) is None


def test_cluster_finalize_falls_back_to_serial_when_a_worker_dies(monkeypatch):
    serial = run_scenario(SPEC.with_overrides(workers=0))
    returned = recording_parallel_map(monkeypatch)

    healthy = build_backend(SPEC)
    run_scenario(SPEC, backend=healthy)
    assert healthy.parallel_used  # the pool path really runs here
    assert fingerprint(run_scenario(SPEC)) == fingerprint(serial)

    monkeypatch.setattr(transport, "run_shard_plan", _exit_in_shard_zero)
    dying = build_backend(SPEC)
    result = run_scenario(SPEC, backend=dying)
    assert returned[-1] is None
    assert not dying.parallel_used
    assert fingerprint(result) == fingerprint(serial)


def test_replications_fall_back_to_serial_when_a_worker_dies(monkeypatch):
    spec = ScenarioSpec(name="reps", duration_s=20.0, requests=({"radius_m": 60.0},))
    seeds = [1, 2]
    serial = run_replications(spec, seeds)
    returned = recording_parallel_map(monkeypatch)
    monkeypatch.setattr(runner, "_replicate", _exit_on_seed_one)
    results = run_replications_parallel(spec, seeds, max_workers=2)
    assert returned == [None]
    assert [r.scenario.seed for r in results] == seeds
    assert [fingerprint(r) for r in results] == [fingerprint(r) for r in serial]


def test_a_replication_ships_without_its_world():
    """What a replication worker sends back holds no handle, so no live
    world: a 20 s ``paper-default`` run pickles to ~330 KB with its
    handles and ~3 KB without."""
    spec = get_scenario("paper-default").with_overrides(duration_s=20.0)
    shipped = _replicate(spec)
    assert shipped.handles == []
    assert shipped.admitted == 1 and shipped.power is not None
    assert len(pickle.dumps(shipped)) < 16_000
