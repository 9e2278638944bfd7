"""Declarative fault plans.

A :class:`FaultPlan` is plain data — the ``faults`` key of a scenario
JSON, or a standalone file passed to ``repro run --faults`` — validated
with the same strictness as :class:`~repro.api.scenarios.ScenarioSpec`:
unknown keys anywhere in the plan are rejected at load time with a
one-line error naming the bad key.

Five fault kinds:

* ``crashes`` — one node dies at ``at_s`` and (optionally) recovers at
  ``recover_s``.
* ``blackouts`` — every node inside a disk dies at ``at_s`` and recovers
  ``duration_s`` later (nodes already down stay down; the blackout only
  revives its own victims).
* ``degradations`` — a time window during which every transmitted frame
  is corrupted at all receivers with probability ``corruption_prob``
  (elevated channel noise; one RNG draw per frame from the dedicated
  ``"faults"`` stream).
* ``worker_kills`` — in the cluster path, the worker process computing a
  shard is killed once and the shard replayed on a restarted worker.
* ``wire`` — chaos on the serve daemon's HTTP surface only (connection
  resets, response delays, truncated bodies, injected 5xx), executed by
  daemon middleware off a dedicated RNG stream.  Like ``worker_kills``
  it never touches the simulated world: a wire-only plan leaves every
  golden pin bit-identical.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields, replace
from typing import Any, Mapping, Optional, Tuple

from ..plain import load


@dataclass(frozen=True)
class NodeCrash:
    """One node dies at ``at_s``; ``recover_s`` (if set) brings it back."""

    #: what plain data calls this section (unknown and missing keys)
    plain_name = "fault crash"

    node_id: int
    at_s: float
    recover_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.node_id < 0:
            raise ValueError(f"crash node_id must be >= 0, got {self.node_id}")
        if self.at_s < 0:
            raise ValueError(f"crash at_s must be >= 0, got {self.at_s}")
        if self.recover_s is not None and self.recover_s <= self.at_s:
            raise ValueError(
                f"crash recover_s ({self.recover_s}) must be > at_s ({self.at_s})"
            )


@dataclass(frozen=True)
class RegionBlackout:
    """Every node within ``radius_m`` of ``(x, y)`` dies for ``duration_s``."""

    #: what plain data calls this section (unknown and missing keys)
    plain_name = "fault blackout"

    x: float
    y: float
    radius_m: float
    at_s: float
    duration_s: float

    def __post_init__(self) -> None:
        if self.radius_m <= 0:
            raise ValueError(f"blackout radius_m must be > 0, got {self.radius_m}")
        if self.at_s < 0:
            raise ValueError(f"blackout at_s must be >= 0, got {self.at_s}")
        if self.duration_s <= 0:
            raise ValueError(
                f"blackout duration_s must be > 0, got {self.duration_s}"
            )


@dataclass(frozen=True)
class RadioDegradation:
    """Elevated corruption window: frames sent in ``[at_s, at_s+duration_s)``
    are jammed at every receiver with probability ``corruption_prob``."""

    #: what plain data calls this section (unknown and missing keys)
    plain_name = "fault degradation"

    at_s: float
    duration_s: float
    corruption_prob: float

    def __post_init__(self) -> None:
        if self.at_s < 0:
            raise ValueError(f"degradation at_s must be >= 0, got {self.at_s}")
        if self.duration_s <= 0:
            raise ValueError(
                f"degradation duration_s must be > 0, got {self.duration_s}"
            )
        if not 0.0 <= self.corruption_prob <= 1.0:
            raise ValueError(
                "degradation corruption_prob must be in [0, 1], "
                f"got {self.corruption_prob}"
            )


@dataclass(frozen=True)
class WorkerKill:
    """Kill the worker process computing ``shard`` once (cluster path)."""

    #: what plain data calls this section (unknown and missing keys)
    plain_name = "fault worker_kill"

    shard: int

    def __post_init__(self) -> None:
        if self.shard < 0:
            raise ValueError(f"worker_kill shard must be >= 0, got {self.shard}")


@dataclass(frozen=True)
class WireChaos:
    """Per-request chaos probabilities on the daemon's HTTP surface.

    Each incoming request draws its fate from the daemon's dedicated
    wire-chaos RNG stream: reset the connection before dispatch
    (``reset_prob``), sleep ``uniform(0, delay_s)`` first
    (``delay_prob``), answer with a typed ``chaos-injected`` 5xx instead
    of dispatching (``error_prob``), or dispatch normally but cut the
    response body short (``truncate_prob`` — the state-committed,
    response-lost case idempotency keys exist for).
    """

    #: what plain data calls this section (unknown and missing keys)
    plain_name = "fault wire"

    reset_prob: float = 0.0
    delay_prob: float = 0.0
    delay_s: float = 0.0
    error_prob: float = 0.0
    truncate_prob: float = 0.0

    def __post_init__(self) -> None:
        for name in ("reset_prob", "delay_prob", "error_prob", "truncate_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(
                    f"wire {name} must be in [0, 1], got {value}"
                )
        if self.delay_s < 0:
            raise ValueError(f"wire delay_s must be >= 0, got {self.delay_s}")
        if self.delay_prob > 0 and self.delay_s <= 0:
            raise ValueError(
                f"wire delay_prob {self.delay_prob} needs delay_s > 0"
            )

    @property
    def empty(self) -> bool:
        """Whether this wire section can never perturb a request."""
        return not (
            self.reset_prob
            or self.delay_prob
            or self.error_prob
            or self.truncate_prob
        )


@dataclass(frozen=True)
class FaultPlan:
    """A complete, validated fault schedule for one run."""

    crashes: Tuple[NodeCrash, ...] = ()
    blackouts: Tuple[RegionBlackout, ...] = ()
    degradations: Tuple[RadioDegradation, ...] = ()
    worker_kills: Tuple[WorkerKill, ...] = ()
    wire: Optional[WireChaos] = None

    @property
    def empty(self) -> bool:
        """Whether the plan schedules nothing at all."""
        return not (
            self.crashes
            or self.blackouts
            or self.degradations
            or self.worker_kills
            or (self.wire is not None and not self.wire.empty)
        )

    @property
    def world_empty(self) -> bool:
        """Whether the plan touches the simulated world itself.

        ``worker_kills`` only exercise the cluster's process pool and
        ``wire`` only the serve daemon's HTTP surface — a plan with just
        those leaves every world bit-identical (the killed shard is
        replayed, the wire chaos draws from its own stream), so no
        injector is built and no period is ever marked degraded for it.
        """
        return not (self.crashes or self.blackouts or self.degradations)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        """Build a plan from plain data through :func:`repro.plain.load`."""
        plan = load(cls, data, "fault plan")
        if plan.wire is not None and plan.wire.empty:
            # All-zero wire sections normalise to no section at all, so
            # "empty wire plan" and "no wire plan" are the same object —
            # the bit-identity guarantee needs no special cases.
            plan = replace(plan, wire=None)
        return plan

    def to_dict(self) -> dict:
        """The plain-data form ``from_dict`` accepts (round-trippable):
        empty sections, an unset ``recover_s`` and an empty wire section
        are left out."""
        out: dict = {}
        for section in fields(self):
            value = getattr(self, section.name)
            if section.name == "wire":
                if value is not None and not value.empty:
                    out["wire"] = asdict(value)
            elif value:
                out[section.name] = [
                    {k: v for k, v in asdict(entry).items() if v is not None}
                    for entry in value
                ]
        return out


def load_fault_file(path: str) -> FaultPlan:
    """Load a standalone fault-plan JSON file (``repro run --faults``)."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"fault plan file {path} must hold a JSON object")
    return FaultPlan.from_dict(data)
