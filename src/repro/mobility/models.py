"""User mobility models.

The paper's evaluation moves the user with a random-direction model: start
at a corner of the region, pick a random direction and a speed uniform in a
range, change both every ``change_interval`` seconds, stay inside the field
(Sections 6.2/6.3).  The model generates the *entire true trajectory* up
front as a :class:`PiecewisePath`; the proxy, predictor and metrics all
read positions off it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..geometry.shapes import Rect
from ..geometry.vec import Vec2
from .path import PiecewisePath, Waypoint


#: keep-out border of a random-direction walk, so the query area is not
#: mostly outside the field
WALK_MARGIN_M = 20.0


@dataclass(frozen=True)
class RandomDirectionConfig:
    """Parameters of the paper's user motion.

    Attributes:
        speed_range: uniform speed range in m/s — the paper sweeps
            (3, 5) walking, (6, 10) running, (16, 20) vehicle.
        change_interval_s: seconds between direction/speed changes (50 s in
            Section 6.2, 42–210 s in Section 6.3).

    The walk keeps :data:`WALK_MARGIN_M` off the field's edge.
    """

    speed_range: Tuple[float, float] = (3.0, 5.0)
    change_interval_s: float = 50.0

    def __post_init__(self) -> None:
        lo, hi = self.speed_range
        if not 0 < lo <= hi:
            raise ValueError(f"bad speed range {self.speed_range}")
        if self.change_interval_s <= 0:
            raise ValueError("change interval must be > 0")


def random_direction_path(
    region: Rect,
    duration_s: float,
    config: RandomDirectionConfig,
    rng: np.random.Generator,
    start: Optional[Vec2] = None,
) -> PiecewisePath:
    """Generate a random-direction trajectory inside ``region``.

    Starts at ``start`` (default: near the region's lower-left corner, as in
    the paper).  Each leg lasts ``change_interval_s``; direction is sampled
    until the leg's endpoint stays inside the margin-inset region (rejection
    sampling, with a pull toward the centre if a corner traps the user).
    """
    inset = Rect(
        region.x_min + WALK_MARGIN_M,
        region.y_min + WALK_MARGIN_M,
        region.x_max - WALK_MARGIN_M,
        region.y_max - WALK_MARGIN_M,
    )
    if start is None:
        start = Vec2(inset.x_min, inset.y_min)
    position = inset.clamp(start)
    waypoints: List[Waypoint] = [Waypoint(0.0, position)]
    t = 0.0
    while t < duration_s:
        leg = min(config.change_interval_s, duration_s - t)
        velocity = _sample_leg_velocity(position, inset, leg, config, rng)
        position = position + velocity * leg
        t += leg
        waypoints.append(Waypoint(t, position))
    return PiecewisePath(waypoints)


def _sample_leg_velocity(
    position: Vec2,
    inset: Rect,
    leg_s: float,
    config: RandomDirectionConfig,
    rng: np.random.Generator,
) -> Vec2:
    lo, hi = config.speed_range
    for _ in range(64):
        speed = float(rng.uniform(lo, hi))
        angle = float(rng.uniform(0.0, 2.0 * math.pi))
        velocity = Vec2.from_polar(speed, angle)
        if inset.contains(position + velocity * leg_s):
            return velocity
    # Trapped (tiny region / long leg): head for the centre at minimum
    # speed, clamped so the endpoint stays inside.
    to_center = inset.center() - position
    distance = to_center.norm()
    if distance == 0.0:
        return Vec2.zero()
    speed = min(lo, distance / leg_s)
    return to_center.normalized() * speed


def patrol_path(
    waypoints: Sequence[Vec2],
    speed: float,
    start_time: float = 0.0,
    loops: int = 1,
) -> PiecewisePath:
    """Constant-speed patrol through fixed waypoints (for examples).

    Visits each waypoint in order, ``loops`` times, at ``speed`` m/s.
    """
    if len(waypoints) < 2:
        raise ValueError("patrol needs at least two waypoints")
    if speed <= 0:
        raise ValueError("patrol speed must be > 0")
    points: List[Waypoint] = [Waypoint(start_time, waypoints[0])]
    t = start_time
    route = list(waypoints) * loops
    previous = route[0]
    for target in route[1:]:
        hop = previous.distance_to(target)
        if hop == 0.0:
            continue
        t += hop / speed
        points.append(Waypoint(t, target))
        previous = target
    return PiecewisePath(points)
