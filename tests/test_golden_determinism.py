"""Golden determinism: the hot-path optimizations change speed, nothing else.

The hot-path overhauls (cached static topology, per-node carrier sense,
kernel fast paths, batched per-frame receptions, the PSM wake-wheel) are
only admissible because simulation *results* are bit-identical to the
pre-optimization code.  The golden configs' pins live in the ledger with
every other run's (``tests/data/pins.json``, checked by
``tests/test_pins.py``, which also states the re-pin rules).  This module
checks the golden configs' two families one by one, on the ledger check's
own run of each config, and holds the properties around them: a rerun
is self-identical, the parallel replications match the serial ones, and
fault plans that leave the world empty move no pin.
"""

import pytest

from repro.api.scenarios import run_scenario
from repro.experiments.runner import run_replications

from .test_pins import (
    golden_config,
    ledger_mismatches,
    load_pins,
    measured,
    mismatches,
    named_runs,
)

GOLDEN_RUNS = [("single_user", 1), ("four_user", 4)]


def _golden_mismatches(name, num_users, family):
    """The ledger mismatches of golden run ``name`` in one pin family."""
    assert named_runs()[name].args[0] == golden_config(num_users)
    problems = mismatches(load_pins()[name], measured(name))
    return [p for p in problems if p.startswith(family)]


@pytest.mark.parametrize("name,num_users", GOLDEN_RUNS)
def test_run_matches_pre_optimization_golden(name, num_users):
    """The ``results`` family: frame counters and per-user success ratios
    bit-identical to the pre-optimization code, exact floats included."""
    assert _golden_mismatches(name, num_users, "results.") == []


@pytest.mark.parametrize("name,num_users", GOLDEN_RUNS)
def test_event_census_matches_pinned_structure(name, num_users):
    """The ``events`` family: catches *accidental* event-structure drift.

    A legitimate batching/coalescing change re-records the ledger's
    ``events`` (``tests/test_pins.py``); anything else tripping this is an
    optimization quietly executing different work.
    """
    assert _golden_mismatches(name, num_users, "events") == []


def test_rerun_is_self_identical():
    """Two runs of one config agree exactly (no hidden global state in the
    neighbor caches, busy counters, wake wheel, or kernel fast paths)."""
    first = run_scenario(golden_config(4))
    second = run_scenario(golden_config(4))
    assert first.events_executed == second.events_executed
    assert first.frames_sent == second.frames_sent
    assert first.frames_delivered == second.frames_delivered
    assert first.frames_collided == second.frames_collided
    assert first.workload.success_ratios() == second.workload.success_ratios()


def _fingerprint(result):
    return (
        result.events_executed,
        result.frames_sent,
        result.frames_delivered,
        result.frames_collided,
        tuple(result.workload.success_ratios()),
        result.power.mean_sleeper_power_w,
    )


def _with_plan(spec, plan):
    """``spec`` injecting ``plan``, through the spec's plain-data form."""
    return spec.with_overrides(faults=plan.to_dict())


@pytest.mark.parametrize("num_users", [1, 4])
def test_empty_fault_plan_is_bit_identical(num_users):
    """RNG-stream hygiene: the fault plane rides a dedicated ``"faults"``
    stream, so merely importing the module, building the (empty) plan, and
    threading it through the runner must not move a single golden pin."""
    from repro.faults import FaultPlan

    plain = run_scenario(golden_config(num_users))
    with_empty_plan = run_scenario(_with_plan(golden_config(num_users), FaultPlan()))
    with_empty_dict_plan = run_scenario(
        _with_plan(golden_config(num_users), FaultPlan.from_dict({}))
    )
    assert _fingerprint(plain) == _fingerprint(with_empty_plan)
    assert _fingerprint(plain) == _fingerprint(with_empty_dict_plan)
    name = "single_user" if num_users == 1 else "four_user"
    assert ledger_mismatches(name, plain) == []


def test_worker_kill_only_plan_leaves_the_world_identical():
    """A plan that only kills pool workers replays shards bit-identically;
    the simulated world (and thus every pin) is untouched by design."""
    from repro.faults import FaultPlan, WorkerKill

    plan = FaultPlan(worker_kills=(WorkerKill(shard=0),))
    assert plan.world_empty and not plan.empty
    result = run_scenario(_with_plan(golden_config(1), plan))
    assert ledger_mismatches("single_user", result) == []


def test_wire_only_plan_leaves_the_world_identical():
    """Wire chaos mangles HTTP, never physics: a wire-only fault plan is
    ``world_empty``, draws from its own dedicated ``"faults.wire"``
    stream, and must not move a single golden pin — and an all-zeros
    wire section is literally no plan at all."""
    from repro.faults import FaultPlan

    plan = FaultPlan.from_dict(
        {"wire": {"reset_prob": 0.5, "delay_prob": 0.5, "delay_s": 0.1,
                  "error_prob": 0.5, "truncate_prob": 0.5}}
    )
    assert plan.world_empty and not plan.empty
    assert FaultPlan.from_dict({"wire": {}}).empty
    result = run_scenario(_with_plan(golden_config(1), plan))
    assert ledger_mismatches("single_user", result) == []


def test_parallel_replications_match_serial_per_seed():
    """run_replications_parallel returns per-seed results identical to the
    serial path, in seed order (forced 2-worker pool, real processes)."""
    from repro.experiments.runner import run_replications_parallel

    spec = golden_config(1)
    seeds = [1, 2]
    serial = run_replications(spec, seeds)
    parallel = run_replications_parallel(spec, seeds, max_workers=2)
    assert [r.scenario.seed for r in parallel] == seeds
    for ser, par in zip(serial, parallel):
        assert ser.events_executed == par.events_executed
        assert ser.frames_sent == par.frames_sent
        assert ser.frames_delivered == par.frames_delivered
        assert ser.frames_collided == par.frames_collided
        assert ser.workload.success_ratios() == par.workload.success_ratios()
        assert ser.power.mean_sleeper_power_w == par.power.mean_sleeper_power_w
        assert ser.backbone_size == par.backbone_size
