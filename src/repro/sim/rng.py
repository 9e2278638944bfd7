"""Reproducible random-number streams.

Every stochastic component (topology placement, MAC backoff, mobility, GPS
error, CCP timers) draws from its own named stream derived from one root
seed, so that:

* a run is exactly reproducible from its seed,
* changing how one component consumes randomness does not perturb the
  others (no shared-stream coupling between, say, backoff and mobility),
* experiment replications use ``seed + replication_index``.

Streams are numpy ``Generator`` instances spawned from a ``SeedSequence``
keyed by the stream name, which is the recommended way to build independent
streams.
"""

from __future__ import annotations

from typing import Dict

import numpy as np


class RandomStreams:
    """A family of independent named RNG streams under one root seed."""

    def __init__(self, root_seed: int) -> None:
        if root_seed < 0:
            raise ValueError(f"root seed must be >= 0, got {root_seed}")
        self.root_seed = int(root_seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """The generator for ``name``, created deterministically on demand.

        The same ``(root_seed, name)`` pair always yields a generator with
        the same state history.
        """
        gen = self._streams.get(name)
        if gen is None:
            # Key the child sequence by the stream name's bytes so stream
            # identity is stable across runs and insertion orders.
            key = [self.root_seed] + list(name.encode("utf-8"))
            gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))
            self._streams[name] = gen
        return gen

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RandomStreams(root_seed={self.root_seed})"
