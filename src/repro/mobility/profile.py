"""Motion profiles — the paper's Section 4.1.2 model.

A motion profile ``P`` is a predicted trajectory with three timing
parameters ``(ts, Tv, tg)``: it takes effect at ``ts``, is valid over
``[ts, ts + Tv]``, and was generated at ``tg``.  The *advance time*
``Ta = ts - tg`` is the paper's central robustness knob:

* a motion **planner** (robot) produces profiles before the motion happens,
  so ``Ta > 0``;
* a history-based **predictor** needs one sampling period of observations
  after the motion changes, so ``Ta < 0`` — the profile describes motion
  that already started, and its first ``|Ta|`` seconds are stale on
  arrival.

Profiles carry a monotonically increasing ``generation`` so in-network
state (prefetch chains, trees) can tell stale profiles from the current
one when cancel messages race new prefetches.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List

from ..geometry.vec import Vec2
from .path import PiecewisePath

_generations = itertools.count(1)


@dataclass(frozen=True)
class MotionProfile:
    """A predicted user trajectory with the paper's timing parameters."""

    path: PiecewisePath
    ts: float
    validity_s: float
    tg: float
    generation: int = field(default_factory=lambda: next(_generations))

    def __post_init__(self) -> None:
        if self.validity_s <= 0:
            raise ValueError(f"validity must be > 0, got {self.validity_s}")

    @property
    def advance_time(self) -> float:
        """``Ta = ts - tg``; positive for planners, negative for predictors."""
        return self.ts - self.tg

    def position_at(self, t: float) -> Vec2:
        """Predicted user position at time ``t`` (path semantics: clamped)."""
        return self.path.position_at(t)

    def regenerated(self) -> "MotionProfile":
        """A copy carrying a fresh (strictly newer) generation.

        The gateway stamps every adopted profile this way, so generation
        order always equals adoption order — and a recovery re-injection of
        the *same* trajectory still supersedes in-network state left behind
        by a dead collector.
        """
        from dataclasses import replace

        return replace(self, generation=next(_generations))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<MotionProfile gen={self.generation} ts={self.ts:.1f} "
            f"Tv={self.validity_s:.1f} Ta={self.advance_time:+.1f}>"
        )


@dataclass(frozen=True)
class ProfileArrival:
    """A profile paired with the time the proxy receives it."""

    time: float
    profile: MotionProfile


class ProfileProvider:
    """Interface: a schedule of motion-profile deliveries to the proxy."""

    def arrivals(self) -> List[ProfileArrival]:
        """All profile deliveries for the run, in arrival order."""
        raise NotImplementedError
