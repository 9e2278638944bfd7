"""Synthetic physical fields sampled by the sensors.

The paper's queries are over generic sensor data ("a temperature map within
one mile").  We model the observed phenomenon as a scalar field over space
and time so queries aggregate something meaningful in the examples (a
spreading fire front, terrain hazard levels), and so tests can assert that
an aggregate equals the known ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ..geometry.vec import Vec2


class ScalarField:
    """Interface: a real-valued function of position and time."""

    def value(self, position: Vec2, time: float) -> float:
        """Field value at ``position`` and ``time``."""
        raise NotImplementedError


@dataclass(frozen=True)
class UniformField(ScalarField):
    """A constant field — the simplest thing a test can assert against."""

    level: float = 20.0

    def value(self, position: Vec2, time: float) -> float:
        return self.level


@dataclass(frozen=True)
class Hotspot:
    """One Gaussian bump, optionally drifting and growing over time."""

    center: Vec2
    amplitude: float
    sigma: float
    drift: Vec2 = Vec2(0.0, 0.0)
    growth_per_s: float = 0.0

    def value(self, position: Vec2, time: float) -> float:
        center = self.center + self.drift * time
        amplitude = self.amplitude * (1.0 + self.growth_per_s * time)
        d_sq = center.distance_sq_to(position)
        return amplitude * math.exp(-d_sq / (2.0 * self.sigma * self.sigma))


@dataclass(frozen=True)
class HotspotField(ScalarField):
    """Sum of Gaussian hotspots over a baseline — e.g. fire fronts.

    The firefighter example uses this with growing, drifting hotspots so the
    MAX-aggregate query visibly tracks the nearest front.
    """

    base: float = 20.0
    hotspots: Sequence[Hotspot] = ()

    def value(self, position: Vec2, time: float) -> float:
        total = self.base
        for spot in self.hotspots:
            total += spot.value(position, time)
        return total


def fire_scenario_field(region_side: float) -> HotspotField:
    """A ready-made wildfire-like field for examples: two growing fronts."""
    return HotspotField(
        base=22.0,
        hotspots=(
            Hotspot(
                center=Vec2(region_side * 0.75, region_side * 0.70),
                amplitude=300.0,
                sigma=region_side * 0.12,
                drift=Vec2(-0.15, -0.10),
                growth_per_s=0.002,
            ),
            Hotspot(
                center=Vec2(region_side * 0.20, region_side * 0.85),
                amplitude=180.0,
                sigma=region_side * 0.08,
                drift=Vec2(0.05, -0.20),
                growth_per_s=0.001,
            ),
        ),
    )
