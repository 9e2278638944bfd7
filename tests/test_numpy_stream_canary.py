"""A canary for numpy's random stream.

Every pin rides on six ``Generator`` methods of the ``PCG64`` streams of
:class:`~repro.sim.rng.RandomStreams`: ``random``, ``uniform``,
``integers``, ``normal``, ``exponential`` and ``shuffle``.  NumPy's policy
for ``Generator`` (NEP 19) lets a distribution's stream change between
feature releases; if one does, every pin moves at once.  This test records
the first draws of each method on one stream (taken on numpy 2.4.6), so an
upgrade that moves them fails here, by name, before the pins say why not.
"""

import numpy as np

from repro.sim.rng import RandomStreams

#: method -> the draws of ``draw`` below, in call order on one stream
FIRST_DRAWS = {
    "random": [0.44056997233088224, 0.8070399893846689, 0.3018885823576696],
    "uniform": [439.3722525949614, 120.27581628919404, 450.77361708894915],
    "integers": [439, 499, 553],
    "normal": [1.0308599320003053, 0.704014133599012, -1.3820627108856458],
    "exponential": [9.110442322255807, 2.7761132693132855, 2.494688909481232],
    "shuffle": [5, 1, 0, 6, 9, 2, 3, 8, 7, 4],
}


def draws():
    """Three draws of each method, then one shuffle, in ``FIRST_DRAWS`` order."""
    stream = RandomStreams(1).stream("canary")
    measured = {
        "random": stream.random(3).tolist(),
        "uniform": stream.uniform(0.0, 500.0, 3).tolist(),
        "integers": stream.integers(0, 1000, 3).tolist(),
        "normal": stream.normal(0.0, 2.0, 3).tolist(),
        "exponential": stream.exponential(5.0, 3).tolist(),
    }
    shuffled = list(range(10))
    stream.shuffle(shuffled)
    measured["shuffle"] = shuffled
    return measured


def test_numpy_stream_has_not_moved():
    moved = {
        method: (FIRST_DRAWS[method], measured)
        for method, measured in draws().items()
        if measured != FIRST_DRAWS[method]
    }
    assert not moved, (
        f"numpy's stream moved (numpy {np.__version__}; the pins were taken "
        f"on 2.4.6): {moved}.  Every pin in tests/data/pins.json moves with "
        "it; bound numpy in pyproject.toml or re-pin on purpose."
    )
