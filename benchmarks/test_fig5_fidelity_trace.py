"""Figure 5 — dynamic behaviour: per-period data fidelity traces.

Paper result: with Tsleep = 15 s both schemes suffer an initial warmup of
about 5 low-fidelity queries (eq. 16 with Ta = 0); after it MQ-JIT holds
fidelity at ~100% nearly every period, while MQ-GP shows significant
variance caused by congestion losses.
"""

import statistics

from repro.api.config import MODE_GREEDY, MODE_JIT
from repro.experiments.figures import run_fig5
from repro.experiments.reporting import format_series


def test_fig5_fidelity_trace(once, emit):
    traces = once(run_fig5)
    by_mode = {t.mode: t for t in traces}
    for trace in traces:
        head = trace.series[:40]
        emit(
            format_series(
                f"Figure 5 — data fidelity per period ({trace.mode}), first 40 periods",
                head,
            )
        )

    jit = by_mode[MODE_JIT]
    greedy = by_mode[MODE_GREEDY]

    # Shape 1: a visible warmup phase exists (paper: ~5 periods; eq. 16
    # bounds it near (Tsleep + 2 Tfresh) / Tp ~ 9 for Ta=0 at Ts=15).
    assert 1 <= jit.warmup_periods <= 12

    # Shape 2: after warmup JIT is near-perfect.
    post = [f for k, f in jit.series if k > jit.warmup_periods + 2]
    assert statistics.mean(post) > 0.93

    # Shape 3: GP's steady state is noisier / weaker than JIT's.
    jit_post = [f for k, f in jit.series if k > 15]
    gp_post = [f for k, f in greedy.series if k > 15]
    assert statistics.mean(gp_post) <= statistics.mean(jit_post) + 1e-9
    assert statistics.pstdev(gp_post) >= statistics.pstdev(jit_post) - 0.01
