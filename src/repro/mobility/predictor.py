"""History-based motion prediction (paper Section 4.1.1).

After each motion change the predictor takes two GPS fixes one sampling
period ``δ`` apart — ``(p1, t1)`` and ``(p2, t2)`` — and extrapolates a
constant velocity ``v = (p2 - p1) / δ``.  The resulting profile:

* takes effect at the change time (``ts = c``) but is only *generated* at
  ``tg = c + δ``, i.e. ``Ta = -δ`` (the paper uses δ = 8 s, matching the
  first-fix latency of the GPS hardware it cites);
* inherits the GPS error of both fixes, so larger ``Δ`` means a worse
  heading estimate — the dotted curves of Figure 7.

On top of the per-change profiles, the proxy "periodically monitors the
user's position and issues a new motion profile whenever the user diverges
from the path predicted by the motion profile, by a system threshold"
(Section 4.1.1).  Without this correction loop a noisy velocity estimate
drifts arbitrarily far over a 70-210 s leg; with it, prediction error stays
bounded by roughly the threshold plus one reissue latency.
"""

from __future__ import annotations

from typing import List

import numpy as np

from .gps import GpsModel
from .path import PiecewisePath
from .profile import MotionProfile, ProfileArrival, ProfileProvider

#: how often (s) the proxy checks a GPS fix against the current profile
MONITOR_INTERVAL_S = 2.0
#: the "system threshold" (m): a fix farther off the profile reissues it
DIVERGENCE_THRESHOLD_M = 10.0


class HistoryPredictorProvider(ProfileProvider):
    """Two-fix velocity extrapolation with GPS error + divergence reissue."""

    def __init__(
        self,
        true_path: PiecewisePath,
        duration_s: float,
        gps: GpsModel,
        rng: np.random.Generator,
        sampling_period_s: float = 8.0,
    ) -> None:
        if duration_s <= 0:
            raise ValueError("duration must be > 0")
        if sampling_period_s <= 0:
            raise ValueError("sampling period must be > 0")
        self.true_path = true_path
        self.duration_s = duration_s
        self.gps = gps
        self.rng = rng
        self.sampling_period_s = sampling_period_s

    # ------------------------------------------------------------------
    # Profile construction
    # ------------------------------------------------------------------
    def _two_fix_profile(
        self, fix_time_1: float, fix_time_2: float, ts: float, horizon_s: float
    ) -> MotionProfile:
        """A constant-velocity profile from two GPS fixes.

        The path is anchored at the second (newest) fix and extended
        backward to ``ts`` so the expired part is consistent.
        """
        delta = fix_time_2 - fix_time_1
        fix1 = self.gps.read(self.true_path, fix_time_1, self.rng)
        fix2 = self.gps.read(self.true_path, fix_time_2, self.rng)
        velocity = (fix2.position - fix1.position) / delta
        start_position = fix2.position - velocity * (fix_time_2 - ts)
        path = PiecewisePath.from_velocity(
            start=start_position,
            velocity=velocity,
            start_time=ts,
            duration=max(horizon_s, 1e-3),
        )
        return MotionProfile(path=path, ts=ts, validity_s=max(horizon_s, 1e-3), tg=fix_time_2)

    # ------------------------------------------------------------------
    # The proxy's prediction timeline
    # ------------------------------------------------------------------
    def arrivals(self) -> List[ProfileArrival]:
        delta = self.sampling_period_s
        boundaries = [0.0] + [
            t for t in self.true_path.change_times() if t < self.duration_s - delta
        ]
        boundaries.append(self.duration_s)
        arrivals: List[ProfileArrival] = []
        for index in range(len(boundaries) - 1):
            leg_start = boundaries[index]
            leg_end = boundaries[index + 1]
            horizon = max(leg_end + delta - leg_start, 2.0 * delta)
            # Per-change profile: fixes at the change and δ later (Ta = -δ).
            profile = self._two_fix_profile(
                fix_time_1=leg_start,
                fix_time_2=leg_start + delta,
                ts=leg_start,
                horizon_s=horizon,
            )
            arrivals.append(ProfileArrival(time=leg_start + delta, profile=profile))
            # Divergence monitoring for the rest of the leg.
            t = leg_start + delta
            while True:
                t += MONITOR_INTERVAL_S
                if t >= min(leg_end, self.duration_s):
                    break
                fix = self.gps.read(self.true_path, t, self.rng)
                divergence = fix.position.distance_to(profile.position_at(t))
                if divergence <= DIVERGENCE_THRESHOLD_M:
                    continue
                # Reissue from the two newest same-leg fixes (t - δ >= leg
                # start holds because t > leg_start + δ).
                profile = self._two_fix_profile(
                    fix_time_1=t - delta,
                    fix_time_2=t,
                    ts=t,
                    horizon_s=max(leg_end + delta - t, 2.0 * delta),
                )
                arrivals.append(ProfileArrival(time=t, profile=profile))
        return arrivals
