"""``repro fuzz`` — seeded randomized scenarios through the sweep harness.

The adversarial sweep (:mod:`repro.faults.sweep`) checks metamorphic
invariants — fault-monotonicity, density-monotonicity, admission-no-harm,
shards1-identity, churn-no-leak — over a *hand-picked* grid.  The fuzzer
closes the remaining gap: it draws whole scenario configurations (fleet
size, request geometry, arrival process, admission policy, shard count,
fault intensity) from **strictly bounded** ranges using one seeded RNG stream
(``"fuzz"``), and feeds each drawn case through the same invariant
machinery.  Every case therefore asks the exact question the sweep
asks — "do the invariants hold *here* too?" — at a point no one thought
to pin.

Determinism: same seed ⇒ same cases ⇒ same verdicts.  A violation
report names its case's drawn parameters, so any finding replays with
``repro fuzz --seed N --runs K``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional, Tuple

from ..api.scenarios import ScenarioSpec
from ..sim.rng import RandomStreams
from .sweep import ADMISSION_ACCEPT_ALL, AXES, SweepAxes, run_sweep, write_report

#: the axis values the fuzzer may draw from: every one the sweep declares
FUZZ_ARRIVALS = AXES["arrivals"].choices
FUZZ_ADMISSIONS = AXES["admissions"].choices


def _bounds(default: Tuple[float, float], minimum: float):
    """A :class:`FuzzBounds` field: its ``(lo, hi)`` default and the least
    ``lo`` a draw may start from."""
    return field(default=default, metadata={"minimum": minimum})


@dataclass(frozen=True)
class FuzzBounds:
    """The strictly bounded parameter ranges every draw stays inside."""

    users: Tuple[int, int] = _bounds((2, 6), 1)
    shards: Tuple[int, int] = _bounds((1, 2), 1)
    duration_s: Tuple[float, float] = _bounds((18.0, 30.0), 6.0)
    period_s: Tuple[float, float] = _bounds((1.5, 3.0), 0.5)
    radius_m: Tuple[float, float] = _bounds((40.0, 90.0), 10.0)
    spacing_s: Tuple[float, float] = _bounds((0.5, 2.5), 0.0)
    intensity: Tuple[float, float] = _bounds((0.25, 1.0), 0.0)
    # Degenerate by default: lo == hi means "keep the base scenario's
    # network" and draws nothing, so existing seeds replay bit-identically.
    n_nodes: Tuple[int, int] = _bounds((200, 200), 8)
    comm_range_m: Tuple[float, float] = _bounds((105.0, 105.0), 20.0)

    def __post_init__(self) -> None:
        for bound in fields(self):
            lo, hi = getattr(self, bound.name)
            minimum = bound.metadata["minimum"]
            if lo > hi:
                raise ValueError(f"fuzz bounds {bound.name}: lo {lo} > hi {hi}")
            if lo < minimum:
                raise ValueError(
                    f"fuzz bounds {bound.name}: lo {lo} < minimum {minimum}"
                )
        if self.intensity[1] > 1.0:
            raise ValueError(
                f"fuzz intensity hi must be <= 1, got {self.intensity[1]}"
            )

    def to_dict(self) -> Dict[str, Any]:
        return {bound.name: list(getattr(self, bound.name)) for bound in fields(self)}


@dataclass(frozen=True)
class FuzzCase:
    """One drawn scenario: a derived spec plus the axes to sweep it on."""

    index: int
    spec: ScenarioSpec
    axes: SweepAxes
    drawn: Dict[str, Any] = field(default_factory=dict)


def draw_case(
    base: ScenarioSpec, rng, index: int, bounds: FuzzBounds
) -> FuzzCase:
    """Draw one bounded case from the ``"fuzz"`` stream.

    The derived spec keeps the base network/mode but replaces the
    request fleet with a drawn prototype and zeroes any scenario-level
    faults — the sweep's intensity axis derives the fault plan, so the
    fault-monotonicity comparison stays clean.
    """
    users = int(rng.integers(bounds.users[0], bounds.users[1] + 1))
    shards = int(rng.integers(bounds.shards[0], bounds.shards[1] + 1))
    duration = round(float(rng.uniform(*bounds.duration_s)), 1)
    period = round(float(rng.uniform(*bounds.period_s)), 2)
    radius = round(float(rng.uniform(*bounds.radius_m)), 1)
    spacing = round(float(rng.uniform(*bounds.spacing_s)), 2)
    freshness = round(period * float(rng.uniform(0.4, 0.9)), 3)
    intensity = round(float(rng.uniform(*bounds.intensity)), 3)
    arrival = str(rng.choice(list(FUZZ_ARRIVALS)))
    admission = str(rng.choice(list(FUZZ_ADMISSIONS)))
    seed_offset = int(rng.integers(0, 10_000))
    # Density / radio-range draws come last and only when the bounds are
    # non-degenerate, so default-bounds replays keep their historical
    # draw sequence.
    n_nodes = (
        int(rng.integers(bounds.n_nodes[0], bounds.n_nodes[1] + 1))
        if bounds.n_nodes[0] != bounds.n_nodes[1]
        else None
    )
    comm_range = (
        round(float(rng.uniform(*bounds.comm_range_m)), 1)
        if bounds.comm_range_m[0] != bounds.comm_range_m[1]
        else None
    )

    payload = base.to_dict()
    payload["name"] = f"{base.name}-fuzz{index}"
    payload["description"] = (
        f"fuzz case {index}: {users} users, {shards} shards, "
        f"intensity {intensity:g}, {arrival}/{admission}"
    )
    payload["seed"] = base.seed + seed_offset
    payload["duration_s"] = duration
    payload["requests"] = [
        {
            "radius_m": radius,
            "period_s": period,
            "freshness_s": freshness,
            "count": users,
            "spacing_s": spacing,
        }
    ]
    payload["faults"] = {}
    payload["shards"] = 1
    payload["workers"] = 0
    # The sweep's own network override; an undrawn ``None`` keeps the base's.
    AXES["densities"].rewrite(payload, base, n_nodes)
    AXES["radio_ranges"].rewrite(payload, base, comm_range)
    spec = ScenarioSpec.from_dict(payload)

    # Always include the fault-free point (monotonicity baseline) and —
    # when the draw picked a non-trivial admission — the accept-all
    # baseline the no-harm invariant compares against.  shards=1 rides
    # along when the draw picked 2, so the identity gate runs too.
    intensities = (0.0, intensity) if intensity > 0 else (0.0,)
    shard_axis = (1,) if shards == 1 else (1, shards)
    admissions = (
        (ADMISSION_ACCEPT_ALL,)
        if admission == ADMISSION_ACCEPT_ALL
        else (ADMISSION_ACCEPT_ALL, admission)
    )
    axes = SweepAxes(
        users=(users,),
        shards=shard_axis,
        intensities=intensities,
        arrivals=(arrival,),
        admissions=admissions,
    )
    drawn = {
        "users": users,
        "shards": shards,
        "duration_s": duration,
        "period_s": period,
        "radius_m": radius,
        "spacing_s": spacing,
        "freshness_s": freshness,
        "intensity": intensity,
        "arrival": arrival,
        "admission": admission,
        "seed": spec.seed,
    }
    if n_nodes is not None:
        drawn["n_nodes"] = n_nodes
    if comm_range is not None:
        drawn["comm_range_m"] = comm_range
    return FuzzCase(index=index, spec=spec, axes=axes, drawn=drawn)


@dataclass(frozen=True)
class FuzzResult:
    """Everything one fuzz run learned (plain-data serializable)."""

    name: str
    base: str
    seed: int
    runs: int
    bounds: FuzzBounds
    cases: Tuple[Dict[str, Any], ...]
    violations: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "base": self.base,
            "seed": self.seed,
            "runs": self.runs,
            "bounds": self.bounds.to_dict(),
            "cases": [dict(case) for case in self.cases],
            "violations": list(self.violations),
            "ok": self.ok,
        }


def run_fuzz(
    base: ScenarioSpec,
    runs: int = 3,
    seed: int = 0,
    bounds: Optional[FuzzBounds] = None,
    workers: int = 0,
    name: Optional[str] = None,
) -> FuzzResult:
    """Draw ``runs`` cases and sweep each through the invariant harness."""
    if runs < 1:
        raise ValueError(f"fuzz runs must be >= 1, got {runs}")
    if seed < 0:
        raise ValueError(f"fuzz seed must be >= 0, got {seed}")
    bounds = bounds if bounds is not None else FuzzBounds()
    rng = RandomStreams(seed).stream("fuzz")
    cases: List[Dict[str, Any]] = []
    violations: List[str] = []
    for index in range(runs):
        case = draw_case(base, rng, index, bounds)
        result = run_sweep(
            case.spec, case.axes, workers=workers, name=case.spec.name
        )
        case_violations = [
            f"case {index} ({json.dumps(case.drawn, sort_keys=True)}): {v}"
            for v in result.violations
        ]
        violations.extend(case_violations)
        cases.append(
            {
                "index": index,
                "drawn": case.drawn,
                "cells": len(result.rows),
                "rows": result.rows,
                "violations": case_violations,
            }
        )
    return FuzzResult(
        name=name or f"{base.name}-fuzz",
        base=base.name,
        seed=seed,
        runs=runs,
        bounds=bounds,
        cases=tuple(cases),
        violations=tuple(violations),
    )


def markdown_summary(result: FuzzResult) -> str:
    """The fuzz verdict as a compact markdown table."""
    lines = [
        "| case | users | shards | intensity | arrival | admission | "
        "cells | verdict |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for case in result.cases:
        drawn = case["drawn"]
        verdict = "ok" if not case["violations"] else "VIOLATION"
        lines.append(
            f"| {case['index']} | {drawn['users']} | {drawn['shards']} | "
            f"{drawn['intensity']:g} | {drawn['arrival']} | "
            f"{drawn['admission']} | {case['cells']} | {verdict} |"
        )
    return "\n".join(lines)


def write_fuzz_outputs(result: FuzzResult, out_dir: str = ".") -> str:
    """Write ``FUZZ_<name>.json`` (and return its path)."""
    return write_report("FUZZ", result.name, result.to_dict(), out_dir)


__all__ = [
    "FUZZ_ADMISSIONS",
    "FUZZ_ARRIVALS",
    "FuzzBounds",
    "FuzzCase",
    "FuzzResult",
    "draw_case",
    "markdown_summary",
    "run_fuzz",
    "write_fuzz_outputs",
]
