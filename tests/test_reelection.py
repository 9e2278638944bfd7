"""Collector re-election past the first attempt, and where it gives up.

A crashed collector hands its duty to the nearest surviving backbone node
(``MobiQueryProtocol._reelect_collector``), at most
``REELECT_ATTEMPT_LIMIT`` times per period.  No fault plan in the tree
crashes an heir too, so here a tracer subscriber crashes each heir as
soon as ``collector-reelected`` names it: every period that loses its
collector then runs attempts 1, 2 and 3, is released as ``lost`` and is
reported degraded.  Under the mutant that sets the limit to 1 the chain
stops after one attempt, which the blackout drill cannot tell apart.
"""

from collections import defaultdict

from repro.api import MobiQueryService, QueryRequest
from repro.api.config import ExperimentConfig
from repro.core.service import MobiQueryProtocol
from repro.faults import FaultPlan
from repro.sim.trace import Tracer

from .mutants import mutate


def run_with_doomed_heirs():
    """Per period: the re-election attempts and the release reasons."""
    tracer = Tracer()
    plan = FaultPlan.from_dict(
        {"blackouts": [{"x": 60, "y": 60, "radius_m": 90,
                        "at_s": 8.0, "duration_s": 6.0}]}
    )
    service = MobiQueryService(
        ExperimentConfig(mode="jit", seed=1, duration_s=30.0),
        tracer=tracer,
        faults=plan,
    )
    attempts = defaultdict(list)
    releases = defaultdict(list)

    def crash_heir(record):
        attempts[record.fields["k"]].append(record.fields["attempt"])
        heir = service.network.node_by_id(record.fields["heir"])
        service.fault_injector.crash_node(heir)

    tracer.subscribe("collector-reelected", crash_heir)
    tracer.subscribe(
        "collector-released",
        lambda record: releases[record.fields["k"]].append(record.fields["reason"]),
    )
    service.submit(
        QueryRequest(radius_m=60.0, period_s=2.0, freshness_s=1.0)
    ).require_admitted()
    (session,) = service.close().sessions
    return attempts, releases, tracer.counts["collector-lost"], session


def test_each_crashed_heir_is_replaced_until_the_limit_then_the_period_is_lost():
    attempts, releases, lost, session = run_with_doomed_heirs()
    assert attempts, "the blackout crashed no collector"
    for k, seen in attempts.items():
        assert seen == [1, 2, 3], (k, seen)
        assert releases[k] == ["lost"], (k, releases[k])
    assert lost == len(attempts)
    assert session.degraded_periods >= len(attempts)


def test_the_attempt_limit_mutant_stops_after_one_attempt(monkeypatch):
    mutate(
        monkeypatch, MobiQueryProtocol, "_reelect_collector",
        "REELECT_ATTEMPT_LIMIT", "1",
    )
    attempts, releases, lost, _ = run_with_doomed_heirs()
    assert attempts and all(seen == [1] for seen in attempts.values())
    assert lost == len(attempts)
