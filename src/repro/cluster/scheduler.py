"""Lockstep epoch scheduler: advancing many shard kernels fairly.

Shard worlds are independent event kernels (queries never cross a shard
boundary), so *correctness* never requires synchronisation — but the
cluster still advances them in **lockstep epochs**: time is cut into
fixed slices and every shard finishes epoch ``e`` before any shard starts
``e + 1``.  That bounds shard clock skew to one epoch, which keeps
cluster-level snapshots (``stats()``, admission views over live sessions)
meaningful mid-run, and it is exactly the cadence a future message-passing
tier between shards would need (cross-shard traffic handed off at epoch
boundaries).
"""

from __future__ import annotations

from typing import List, Sequence

#: epoch length: one paper query period — fine-grained enough that mid-run
#: cluster snapshots are coherent, coarse enough to stay off the kernels'
#: hot path
EPOCH_S = 2.0


class LockstepScheduler:
    """Advance a fleet of shard kernels in bounded-skew epochs."""

    def __init__(self, sims: Sequence) -> None:
        """Args:
        sims: the shard kernels (anything with ``now`` and ``run(until=)``).
        """
        self.sims: List = list(sims)
        #: epochs completed by every shard (monotonic, telemetry)
        self.epochs_run = 0

    def advance(self, until: float) -> None:
        """Run every shard kernel to ``until``, one epoch at a time.

        Within an epoch shards run in shard-index order; an epoch only
        begins once every shard finished the previous one, so shard clocks
        never drift apart by more than :data:`EPOCH_S`.  Idempotent: shards
        already at or past ``until`` are left untouched.
        """
        if not self.sims:
            return
        floor = min(sim.now for sim in self.sims)
        while floor < until:
            target = min(until, floor + EPOCH_S)
            for sim in self.sims:
                if sim.now < target:
                    sim.run(until=target)
            self.epochs_run += 1
            floor = target


__all__ = ["EPOCH_S", "LockstepScheduler"]
