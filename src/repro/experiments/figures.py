"""Per-figure experiment sweeps (paper Section 6 + Section 5 tables).

Each ``run_figN`` function executes the sweep behind one figure of the
paper and returns structured rows; ``scale`` selects between:

* ``"paper"`` — the full parameter grid and durations of the paper
  (Section 6.1/6.2/6.3); slow, meant for regenerating EXPERIMENTS.md.
* ``"quick"`` — a reduced grid with shorter sessions that preserves every
  trend; the default for CI / ``pytest benchmarks/``.

Set the environment variable ``REPRO_BENCH_SCALE=paper`` to run benchmarks
at paper scale.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from ..core.analysis import (
    AnalysisParams,
    interference_length_greedy,
    interference_length_jit,
    mps_to_paper_mph,
    prefetch_length_greedy,
    prefetch_length_jit,
    prefetch_speed_mps,
    contention_crossover_speed,
    warmup_interval_s,
)
from ..api.config import (
    MODE_GREEDY,
    MODE_IDLE,
    MODE_JIT,
    MODE_NP,
    ExperimentConfig,
    paper_section62_config,
    paper_section63_config,
)
from .runner import mean_success_ratio, run_experiment, run_replications_parallel

SCALE_PAPER = "paper"
SCALE_QUICK = "quick"


def bench_scale() -> str:
    """Scale selected via ``REPRO_BENCH_SCALE`` (defaults to quick)."""
    scale = os.environ.get("REPRO_BENCH_SCALE", SCALE_QUICK).lower()
    if scale not in (SCALE_PAPER, SCALE_QUICK):
        raise ValueError(f"REPRO_BENCH_SCALE must be paper|quick, got {scale!r}")
    return scale


# ----------------------------------------------------------------------
# Figure 4 — success ratio: MQ-JIT vs MQ-GP vs NP
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fig4Row:
    """One bar of Figure 4."""

    mode: str
    sleep_period_s: float
    speed_range: Tuple[float, float]
    success_ratio: float
    mean_fidelity: float


def fig4_grid(scale: str) -> Tuple[List[float], List[Tuple[float, float]], List[int], float]:
    if scale == SCALE_PAPER:
        return (
            [3.0, 6.0, 9.0, 12.0, 15.0],
            [(3.0, 5.0), (6.0, 10.0), (16.0, 20.0)],
            [1, 2, 3],
            400.0,
        )
    return [3.0, 9.0, 15.0], [(3.0, 5.0)], [1], 150.0


def run_fig4(scale: Optional[str] = None) -> List[Fig4Row]:
    """Success ratio of MQ-JIT / MQ-GP / NP across sleep periods x speeds."""
    scale = scale or bench_scale()
    sleep_periods, speeds, seeds, duration = fig4_grid(scale)
    rows: List[Fig4Row] = []
    for mode in (MODE_JIT, MODE_GREEDY, MODE_NP):
        for sleep_period in sleep_periods:
            for speed_range in speeds:
                results = run_replications_parallel(
                    paper_section62_config(
                        mode=mode,
                        sleep_period_s=sleep_period,
                        speed_range=speed_range,
                        seed=seeds[0],
                        duration_s=duration,
                    ),
                    seeds,
                )
                rows.append(
                    Fig4Row(
                        mode=mode,
                        sleep_period_s=sleep_period,
                        speed_range=speed_range,
                        success_ratio=mean_success_ratio(results),
                        mean_fidelity=sum(
                            r.metrics.mean_fidelity() for r in results
                        )
                        / len(results),
                    )
                )
    return rows


# ----------------------------------------------------------------------
# Figure 5 — per-period fidelity trace
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fig5Trace:
    mode: str
    series: List[Tuple[int, float]]
    warmup_periods: int


def run_fig5(scale: Optional[str] = None) -> List[Fig5Trace]:
    """Dynamic behaviour: fidelity per pickup point, Tsleep=15 s, 3-5 m/s."""
    scale = scale or bench_scale()
    duration = 400.0 if scale == SCALE_PAPER else 200.0
    traces = []
    for mode in (MODE_JIT, MODE_GREEDY):
        result = run_experiment(
            paper_section62_config(
                mode=mode, sleep_period_s=15.0, speed_range=(3.0, 5.0),
                seed=2, duration_s=duration,
            )
        )
        assert result.metrics is not None
        traces.append(
            Fig5Trace(
                mode=mode,
                series=result.metrics.fidelity_series(),
                warmup_periods=result.metrics.warmup_periods_observed(),
            )
        )
    return traces


# ----------------------------------------------------------------------
# Figure 6 — success ratio vs advance time
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fig6Row:
    sleep_period_s: float
    advance_time_s: float
    success_ratio: float


def run_fig6(scale: Optional[str] = None) -> List[Fig6Row]:
    """Success ratio of MQ-JIT vs motion-profile advance time Ta."""
    scale = scale or bench_scale()
    if scale == SCALE_PAPER:
        sleep_periods = [3.0, 9.0, 15.0]
        advance_times = [-6.0, 0.0, 6.0, 12.0, 18.0]
        seeds = [1, 2, 3, 4, 5]
        duration = 500.0
    else:
        sleep_periods = [9.0]
        advance_times = [-6.0, 0.0, 12.0]
        seeds = [2]
        duration = 210.0
    rows = []
    for sleep_period in sleep_periods:
        for ta in advance_times:
            results = run_replications_parallel(
                paper_section63_config(
                    sleep_period_s=sleep_period,
                    change_interval_s=70.0,
                    advance_time_s=ta,
                    seed=seeds[0],
                    duration_s=duration,
                ),
                seeds,
            )
            rows.append(
                Fig6Row(
                    sleep_period_s=sleep_period,
                    advance_time_s=ta,
                    success_ratio=mean_success_ratio(results),
                )
            )
    return rows


# ----------------------------------------------------------------------
# Figure 7 — success ratio vs motion-change interval (+ location error)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fig7Row:
    curve: str
    change_interval_s: float
    success_ratio: float


def run_fig7(scale: Optional[str] = None) -> List[Fig7Row]:
    """Motion changes and GPS errors (sleep period 9 s)."""
    scale = scale or bench_scale()
    if scale == SCALE_PAPER:
        intervals = [42.0, 52.0, 70.0, 105.0, 210.0]
        curves = [
            ("Ta=+6s", dict(advance_time_s=6.0)),
            ("Ta=0s", dict(advance_time_s=0.0)),
            ("Ta=-8s", dict(advance_time_s=-8.0)),
            ("Ta=-8s,err=5m", dict(gps_error_m=5.0)),
            ("Ta=-8s,err=10m", dict(gps_error_m=10.0)),
        ]
        seeds = [1, 2, 3, 4, 5]
        duration = 500.0
    else:
        intervals = [42.0, 70.0]
        curves = [
            ("Ta=0s", dict(advance_time_s=0.0)),
            ("Ta=-8s,err=10m", dict(gps_error_m=10.0)),
        ]
        seeds = [2]
        duration = 210.0
    rows = []
    for curve_name, kwargs in curves:
        for interval in intervals:
            results = run_replications_parallel(
                paper_section63_config(
                    sleep_period_s=9.0,
                    change_interval_s=interval,
                    seed=seeds[0],
                    duration_s=duration,
                    **kwargs,
                ),
                seeds,
            )
            rows.append(
                Fig7Row(
                    curve=curve_name,
                    change_interval_s=interval,
                    success_ratio=mean_success_ratio(results),
                )
            )
    return rows


# ----------------------------------------------------------------------
# Figure 8 — power consumption per sleeping node
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fig8Row:
    variant: str
    sleep_period_s: float
    sleeper_power_w: float


def run_fig8(scale: Optional[str] = None) -> List[Fig8Row]:
    """Average sleeping-node power: CCP-only vs MQ-JIT (Ta=-3 / Ta=+9)."""
    scale = scale or bench_scale()
    if scale == SCALE_PAPER:
        sleep_periods = [3.0, 9.0, 15.0]
        seeds = [1, 2, 3]
        duration = 400.0
    else:
        sleep_periods = [3.0, 15.0]
        seeds = [1]
        duration = 150.0
    variants = [
        ("CCP (no query)", None),
        ("MQ-JIT Ta=-3s", -3.0),
        ("MQ-JIT Ta=+9s", 9.0),
    ]
    rows = []
    for variant_name, ta in variants:
        for sleep_period in sleep_periods:
            powers = []
            for seed in seeds:
                if ta is None:
                    config = ExperimentConfig(
                        mode=MODE_IDLE,
                        seed=seed,
                        duration_s=duration,
                        network=ExperimentConfig().network.with_sleep_period(sleep_period),
                    )
                else:
                    config = paper_section63_config(
                        sleep_period_s=sleep_period,
                        change_interval_s=70.0,
                        advance_time_s=ta,
                        seed=seed,
                        duration_s=duration,
                    )
                powers.append(run_experiment(config).power.mean_sleeper_power_w)
            rows.append(
                Fig8Row(
                    variant=variant_name,
                    sleep_period_s=sleep_period,
                    sleeper_power_w=sum(powers) / len(powers),
                )
            )
    return rows


# ----------------------------------------------------------------------
# Section 5.2 / 5.4 worked examples (analysis tables A and B)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StorageTableRow:
    quantity: str
    paper_value: float
    our_value: float


def storage_analysis_table() -> List[StorageTableRow]:
    """Tab A: the Section 5.2 storage-cost example, paper vs computed."""
    v_prefetch = prefetch_speed_mps(100.0, 5, 60, 5000.0)
    params = AnalysisParams(
        t_period_s=10.0, t_fresh_s=5.0, t_sleep_s=15.0,
        v_user_mps=4.0, v_prefetch_mps=v_prefetch,
    )
    return [
        StorageTableRow("vprfh (mph)", 469.0, round(mps_to_paper_mph(v_prefetch), 1)),
        StorageTableRow("PL_jit (trees)", 4, prefetch_length_jit(params)),
        StorageTableRow("PL_gp (trees, Td=600s)", 58, prefetch_length_greedy(600.0, params)),
        StorageTableRow(
            "storage ratio gp/jit", 14.5,
            round(prefetch_length_greedy(600.0, params) / prefetch_length_jit(params), 2),
        ),
    ]


def contention_analysis_table() -> List[StorageTableRow]:
    """Tab B: the Section 5.4 contention example, paper vs computed."""
    v_prefetch = prefetch_speed_mps(100.0, 5, 60, 5000.0)
    params = AnalysisParams(
        t_period_s=5.0, t_fresh_s=3.0, t_sleep_s=9.0,
        v_user_mps=4.0, v_prefetch_mps=v_prefetch,
    )
    v_star = contention_crossover_speed(150.0, 50.0, 9.0, 3.0)
    return [
        StorageTableRow("v* (mph)", 131.0, round(mps_to_paper_mph(v_star), 1)),
        StorageTableRow(
            "interfering trees (JIT)", 4,
            interference_length_jit(150.0, 50.0, params),
        ),
        StorageTableRow(
            "interfering trees (GP)", 35,
            interference_length_greedy(150.0, 50.0, params),
        ),
    ]


def measured_section5(scale: Optional[str] = None) -> Dict[str, Dict[str, int]]:
    """Simulated Section 5 lengths under the Section 6.1 settings.

    ``{"prefetch_length": {mode: n}, "interference_length": {mode: n}}``
    for JIT and greedy: Tab A's storage and Tab B's contention read the
    same two runs, made once per scale.
    """
    measured = _measured_section5(scale or bench_scale())
    return {name: dict(by_mode) for name, by_mode in measured.items()}


@lru_cache(maxsize=None)
def _measured_section5(scale: str) -> Dict[str, Dict[str, int]]:
    duration = 400.0 if scale == SCALE_PAPER else 120.0
    out: Dict[str, Dict[str, int]] = {
        "prefetch_length": {},
        "interference_length": {},
    }
    for mode in (MODE_JIT, MODE_GREEDY):
        result = run_experiment(
            paper_section62_config(mode=mode, sleep_period_s=9.0, seed=1, duration_s=duration)
        )
        out["prefetch_length"][mode] = result.max_prefetch_length
        out["interference_length"][mode] = result.interference_length
    return out


# ----------------------------------------------------------------------
# Section 5.3 warmup bound (analysis table C)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WarmupRow:
    advance_time_s: float
    bound_s: float
    measured_s: float


def run_warmup_comparison(scale: Optional[str] = None) -> List[WarmupRow]:
    """Eq. (16) bound vs simulated warmup after the first motion change."""
    scale = scale or bench_scale()
    duration = 300.0 if scale == SCALE_PAPER else 160.0
    rows = []
    for ta in (-8.0, 0.0, 12.0):
        config = paper_section63_config(
            sleep_period_s=9.0,
            change_interval_s=70.0,
            advance_time_s=ta,
            seed=2,
            duration_s=duration,
        )
        result = run_experiment(config)
        assert result.metrics is not None
        # measured: below-bar periods in the window after the first change
        change_period = int(70.0 / config.query.period_s)
        post = [
            r
            for r in result.metrics.records
            if change_period < r.k <= change_period + 20
        ]
        failures = sum(1 for r in post if r.fidelity < 0.95)
        params = AnalysisParams(
            t_period_s=config.query.period_s,
            t_fresh_s=config.query.freshness_s,
            t_sleep_s=9.0,
            v_user_mps=4.0,
            v_prefetch_mps=200.0,
        )
        rows.append(
            WarmupRow(
                advance_time_s=ta,
                bound_s=warmup_interval_s(ta, params),
                measured_s=failures * config.query.period_s,
            )
        )
    return rows
