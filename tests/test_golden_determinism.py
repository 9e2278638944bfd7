"""Golden determinism: the hot-path optimizations change speed, nothing else.

The hot-path overhauls (PR 2: cached static topology, per-node carrier
sense, kernel fast paths, inlined radio/energy transitions; PR 4: batched
per-frame receptions, the PSM wake-wheel) are only admissible because
simulation *results* are bit-identical to the pre-optimization code.  The
pins are split into two families with different rules:

* **Result fingerprints** (``GOLDEN_RESULTS``): frame counters and
  per-user success ratios — what the simulation computes.  Captured on the
  commit before the PR 2 overhaul and bit-identical ever since; only a
  deliberate *model* change (new protocol behaviour, different RNG layout)
  may re-pin them, in the same commit, saying so in the commit message.
* **Event-count fingerprints** (``GOLDEN_EVENT_COUNTS``): how many kernel
  events the run executes — an implementation property.  An optimization
  that repacks work into fewer events (batching, coalescing) legitimately
  changes these.  Re-pin procedure: verify every ``GOLDEN_RESULTS`` field
  still matches, run the two configs below, paste the new
  ``events_executed`` values with a comment-trail entry noting which PR
  changed the event structure and why, all in the same commit.

Comment trail for ``GOLDEN_EVENT_COUNTS``:

* PR 2-3: 24363 (single user) / 89806 (four users) — one end-of-airtime
  event per frame x listener era pins, with per-node PSM boundary chains.
* PR 4: 6309 / 22796 — the PSM wake-wheel cut ~73% of events (one event
  per distinct beacon window boundary instead of one per sleeper, and
  wake overrides no longer chain duplicate per-node boundary events —
  the old chains grew O(overrides^2)); folding the MAC's broadcast
  completion into the channel's end-of-airtime batch event removed one
  more event per broadcast frame.  Results verified bit-identical,
  including sleeper power draw.
"""

import pytest

from repro.api.config import MODE_JIT, ExperimentConfig, QueryParams
from repro.experiments.runner import run_experiment, run_replications
from repro.workload.arrivals import ARRIVAL_STAGGERED

#: captured at quick scale (120 s, Rq=60 m, seed 1) pre-PR-2-overhaul;
#: bit-identical through every perf PR since — the correctness gate.
GOLDEN_RESULTS = {
    "single_user": {
        "frames_sent": 1701,
        "frames_delivered": 26903,
        "frames_collided": 62,
        "success_ratios": (0.9666666666666667,),
    },
    "four_user": {
        "frames_sent": 6124,
        "frames_delivered": 102151,
        "frames_collided": 590,
        "success_ratios": (
            0.9666666666666667,
            0.9827586206896551,
            0.8947368421052632,
            0.9642857142857143,
        ),
    },
}

#: kernel events per run — re-pinned when the event structure changes
#: (see the module docstring for the procedure and the comment trail)
GOLDEN_EVENT_COUNTS = {
    "single_user": 6309,
    "four_user": 22796,
}


def _config(num_users: int) -> ExperimentConfig:
    base = ExperimentConfig(
        mode=MODE_JIT, seed=1, duration_s=120.0, query=QueryParams(radius_m=60.0)
    )
    if num_users == 1:
        return base
    return base.with_num_users(
        num_users, arrival_process=ARRIVAL_STAGGERED, arrival_spacing_s=2.5
    )


@pytest.mark.parametrize(
    "name,num_users", [("single_user", 1), ("four_user", 4)]
)
def test_run_matches_pre_optimization_golden(name, num_users):
    result = run_experiment(_config(num_users))
    expected = GOLDEN_RESULTS[name]
    assert result.frames_sent == expected["frames_sent"]
    assert result.frames_delivered == expected["frames_delivered"]
    assert result.frames_collided == expected["frames_collided"]
    # Exact float equality is intentional: the runs must be bit-identical,
    # not merely statistically close.
    assert tuple(result.user_success_ratios) == expected["success_ratios"]


@pytest.mark.parametrize(
    "name,num_users", [("single_user", 1), ("four_user", 4)]
)
def test_event_census_matches_pinned_structure(name, num_users):
    """The event-count pin: catches *accidental* event-structure drift.

    A legitimate batching/coalescing change re-pins GOLDEN_EVENT_COUNTS in
    its own commit (module docstring); anything else tripping this is an
    optimization quietly executing different work.
    """
    result = run_experiment(_config(num_users))
    assert result.events_executed == GOLDEN_EVENT_COUNTS[name]


def test_rerun_is_self_identical():
    """Two runs of one config agree exactly (no hidden global state in the
    neighbor caches, busy counters, wake wheel, or kernel fast paths)."""
    first = run_experiment(_config(4))
    second = run_experiment(_config(4))
    assert first.events_executed == second.events_executed
    assert first.frames_sent == second.frames_sent
    assert first.frames_delivered == second.frames_delivered
    assert first.frames_collided == second.frames_collided
    assert first.user_success_ratios == second.user_success_ratios


def _fingerprint(result):
    return (
        result.events_executed,
        result.frames_sent,
        result.frames_delivered,
        result.frames_collided,
        tuple(result.user_success_ratios),
        result.power.mean_sleeper_power_w,
    )


@pytest.mark.parametrize("num_users", [1, 4])
def test_empty_fault_plan_is_bit_identical(num_users):
    """RNG-stream hygiene: the fault plane rides a dedicated ``"faults"``
    stream, so merely importing the module, building the (empty) plan, and
    threading it through the runner must not move a single golden pin."""
    from repro.faults import FaultPlan

    plain = run_experiment(_config(num_users))
    with_empty_plan = run_experiment(_config(num_users), faults=FaultPlan())
    with_empty_dict_plan = run_experiment(
        _config(num_users), faults=FaultPlan.from_dict({})
    )
    assert _fingerprint(plain) == _fingerprint(with_empty_plan)
    assert _fingerprint(plain) == _fingerprint(with_empty_dict_plan)
    name = "single_user" if num_users == 1 else "four_user"
    expected = GOLDEN_RESULTS[name]
    assert plain.frames_sent == expected["frames_sent"]
    assert tuple(plain.user_success_ratios) == expected["success_ratios"]
    assert plain.events_executed == GOLDEN_EVENT_COUNTS[name]


def test_worker_kill_only_plan_leaves_the_world_identical():
    """A plan that only kills pool workers replays shards bit-identically;
    the simulated world (and thus every pin) is untouched by design."""
    from repro.faults import FaultPlan, WorkerKill

    plan = FaultPlan(worker_kills=(WorkerKill(shard=0),))
    assert plan.world_empty and not plan.empty
    result = run_experiment(_config(1), faults=plan)
    expected = GOLDEN_RESULTS["single_user"]
    assert result.frames_sent == expected["frames_sent"]
    assert tuple(result.user_success_ratios) == expected["success_ratios"]


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
    result = run_experiment(_config(1), faults=plan)
    expected = GOLDEN_RESULTS["single_user"]
    assert result.frames_sent == expected["frames_sent"]
    assert tuple(result.user_success_ratios) == expected["success_ratios"]
    assert result.events_executed == GOLDEN_EVENT_COUNTS["single_user"]
    assert result.events_executed == GOLDEN_EVENT_COUNTS["single_user"]


def test_parallel_replications_match_serial_per_seed():
    """run_replications_parallel returns per-seed results identical to the
    serial path, in seed order (forced 2-worker pool, real processes)."""
    from repro.experiments.runner import run_replications_parallel

    config = _config(1)
    seeds = [1, 2]
    serial = run_replications(config, seeds)
    parallel = run_replications_parallel(config, seeds, max_workers=2)
    assert [r.config.seed for r in parallel] == seeds
    for ser, par in zip(serial, parallel):
        assert ser.events_executed == par.events_executed
        assert ser.frames_sent == par.frames_sent
        assert ser.frames_delivered == par.frames_delivered
        assert ser.frames_collided == par.frames_collided
        assert ser.user_success_ratios == par.user_success_ratios
        assert ser.power.mean_sleeper_power_w == par.power.mean_sleeper_power_w
        assert ser.backbone_size == par.backbone_size
